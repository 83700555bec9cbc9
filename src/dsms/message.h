#ifndef DKF_DSMS_MESSAGE_H_
#define DKF_DSMS_MESSAGE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "linalg/matrix.h"

namespace dkf {

/// Kinds of source->server traffic in the simulated DSMS.
enum class MessageType {
  /// A measurement update: the reading the mirror filter failed to predict
  /// within delta.
  kMeasurement,
  /// A model-switch notification (extension): tells the server to swap in
  /// bank model `model_index`, primed with `payload`.
  kModelSwitch,
  /// A full-state resync: the mirror's state vector, covariance, and step
  /// counter. Sent after an ambiguous ACK; applying it re-locks KF_s to
  /// KF_m by construction (docs/protocol.md §6).
  kResync,
  /// A liveness beacon from a silent-but-healthy source, letting the
  /// server tell suppression apart from link death.
  kHeartbeat,
};

/// One unit of network traffic. The byte accounting mirrors a compact wire
/// format rather than any in-memory layout: a fixed header plus 8 bytes
/// per payload double.
struct Message {
  MessageType type = MessageType::kMeasurement;
  int source_id = 0;
  int64_t tick = 0;
  Vector payload;
  size_t model_index = 0;  ///< only meaningful for kModelSwitch

  /// Per-source sequence number, strictly increasing over every send
  /// attempt (including retries and heartbeats). 0 means "unsequenced":
  /// a locally delivered message that bypasses the server's
  /// stale/duplicate rejection — the legacy direct-OnMessage path.
  uint32_t sequence = 0;

  /// FNV-1a checksum over every other field, stamped by the channel at
  /// send time (link-layer framing). 0 means "unframed" and skips
  /// verification at the server.
  uint32_t checksum = 0;

  /// kResync payload: the mirror filter's full internal state.
  Vector resync_state;
  Matrix resync_covariance;
  int64_t resync_step = 0;

  /// kResync payload, adaptive links only: the mirror's NoiseAdapter
  /// state (filter/adaptive_noise.h), so a healed link re-locks the
  /// adaptation servo bit-exactly along with the filter. Empty on
  /// non-adaptive links — and an empty vector leaves SizeBytes and
  /// ComputeChecksum bit-identical to the pre-adaptive wire format.
  Vector resync_adapt;

  /// Fusion-group addressing (docs/fusion.md). A message with
  /// group_id >= 0 is fused traffic: `source_id` names the member and
  /// the server routes it to the group's fused posterior instead of a
  /// per-source link. -1 (the default) keeps plain traffic bit-identical
  /// on the wire: the group fields then contribute nothing to SizeBytes
  /// or ComputeChecksum.
  int group_id = -1;

  /// The group-posterior version the member's fused mirror tracked when
  /// it sent this message. Lets the server tell a correction tested
  /// against a fresh mirror from one sent across a partition (the member
  /// missed re-lock broadcasts). -1 when group_id < 0.
  int64_t group_version = -1;

  /// Serialized size: type/source/tick/sequence/checksum header
  /// (21 bytes; +12 for fused traffic's group id and posterior version)
  /// + the per-type payload: 8 bytes per payload double, + the
  /// model index for switch messages, + the full state dump for resyncs.
  /// Heartbeats are header-only.
  size_t SizeBytes() const {
    size_t bytes = 1 + 4 + 8 + 4 + 4;
    if (group_id >= 0) bytes += 4 + 8;  // group id + posterior version
    switch (type) {
      case MessageType::kMeasurement:
        bytes += payload.size() * sizeof(double);
        break;
      case MessageType::kModelSwitch:
        bytes += payload.size() * sizeof(double) + 4;
        break;
      case MessageType::kResync:
        bytes += resync_state.size() * sizeof(double) +
                 resync_covariance.rows() * resync_covariance.cols() *
                     sizeof(double) +
                 8 +  // the step counter
                 resync_adapt.size() * sizeof(double);
        break;
      case MessageType::kHeartbeat:
        break;
    }
    return bytes;
  }

  /// FNV-1a (32-bit) over every field except `checksum` itself. Used as
  /// the wire checksum: the channel stamps it before transmission and the
  /// server recomputes it, so fault-injected payload corruption is caught
  /// at the door instead of entering a filter.
  uint32_t ComputeChecksum() const {
    uint32_t hash = 2166136261u;
    auto mix_bytes = [&hash](const void* data, size_t size) {
      const unsigned char* bytes = static_cast<const unsigned char*>(data);
      for (size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 16777619u;
      }
    };
    auto mix_double = [&mix_bytes](double value) {
      uint64_t bits;
      std::memcpy(&bits, &value, sizeof(bits));
      mix_bytes(&bits, sizeof(bits));
    };
    const unsigned char type_byte = static_cast<unsigned char>(type);
    mix_bytes(&type_byte, 1);
    mix_bytes(&source_id, sizeof(source_id));
    mix_bytes(&tick, sizeof(tick));
    mix_bytes(&sequence, sizeof(sequence));
    mix_bytes(&model_index, sizeof(model_index));
    for (size_t i = 0; i < payload.size(); ++i) mix_double(payload[i]);
    mix_bytes(&resync_step, sizeof(resync_step));
    for (size_t i = 0; i < resync_state.size(); ++i) {
      mix_double(resync_state[i]);
    }
    for (size_t r = 0; r < resync_covariance.rows(); ++r) {
      for (size_t c = 0; c < resync_covariance.cols(); ++c) {
        mix_double(resync_covariance(r, c));
      }
    }
    for (size_t i = 0; i < resync_adapt.size(); ++i) {
      mix_double(resync_adapt[i]);
    }
    if (group_id >= 0) {
      mix_bytes(&group_id, sizeof(group_id));
      mix_bytes(&group_version, sizeof(group_version));
    }
    return hash;
  }
};

/// A healthy-but-silent source's header-only liveness beacon
/// (docs/protocol.md §6.2).
inline Message MakeHeartbeat(int source_id, int64_t tick, uint32_t sequence) {
  Message beacon;
  beacon.type = MessageType::kHeartbeat;
  beacon.source_id = source_id;
  beacon.tick = tick;
  beacon.sequence = sequence;
  return beacon;
}

}  // namespace dkf

#endif  // DKF_DSMS_MESSAGE_H_
