// Randomized bit-flip fuzz over serialized Message payloads: no framed
// (checksummed) message that was corrupted in flight may ever be
// accepted by the server. Every flip of a checksum-covered field must
// bounce off the FNV-1a gate — counted, traced as exactly one
// corrupt_reject event, and leaving the predictor state untouched. The
// same frames, addressed to a fusion group from a live and from a
// removed member, must bounce off the fused ingress the same way.

#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "dsms/message.h"
#include "dsms/server_node.h"
#include "filter/adaptive_noise.h"
#include "filter/kalman_filter.h"
#include "fusion/fusion_engine.h"
#include "models/model_factory.h"
#include "obs/trace.h"
#include "obs/trace_sink.h"

namespace dkf {
namespace {

StateModel ScalarModel() {
  ModelNoise noise;
  noise.process_variance = 0.05;
  noise.measurement_variance = 0.05;
  // Constant model: a 1-element state vector, so hand-built kResync
  // snapshots are dimensionally valid.
  return MakeConstantModel(1, noise).value();
}

/// Flips one random bit in one random checksum-covered field (never the
/// checksum itself: zeroing it would turn the message into a legacy
/// "unframed" one that legitimately skips verification, and never
/// source_id: routing corruption surfaces as a NotFound error at the
/// lookup, before the checksum gate). Returns false when the draw does
/// not apply to this message (e.g. no payload to corrupt).
bool FlipRandomBit(Rng& rng, Message& message) {
  auto flip = [&rng](void* data, size_t size) {
    const size_t bit = static_cast<size_t>(rng.Uniform() * 8.0 * size);
    static_cast<unsigned char*>(data)[bit / 8] ^=
        static_cast<unsigned char>(1u << (bit % 8));
  };
  switch (static_cast<int>(rng.Uniform() * 7.0)) {
    case 0: {  // message type tag
      unsigned char type_byte = static_cast<unsigned char>(message.type);
      flip(&type_byte, 1);
      message.type = static_cast<MessageType>(type_byte);
      return true;
    }
    case 1:
      flip(&message.tick, sizeof(message.tick));
      return true;
    case 2:
      flip(&message.sequence, sizeof(message.sequence));
      return true;
    case 3: {
      if (message.payload.size() == 0) return false;
      const size_t i =
          static_cast<size_t>(rng.Uniform() * message.payload.size());
      flip(&message.payload[i], sizeof(double));
      return true;
    }
    case 4: {
      if (message.resync_state.size() == 0) return false;
      const size_t i =
          static_cast<size_t>(rng.Uniform() * message.resync_state.size());
      flip(&message.resync_state[i], sizeof(double));
      return true;
    }
    case 5: {
      // The v4 adapter payload is checksum-covered like every other
      // resync field: a flipped noise-servo double must bounce too.
      if (message.resync_adapt.size() == 0) return false;
      const size_t i =
          static_cast<size_t>(rng.Uniform() * message.resync_adapt.size());
      flip(&message.resync_adapt[i], sizeof(double));
      return true;
    }
    default:
      if (message.type != MessageType::kResync) return false;
      flip(&message.resync_step, sizeof(message.resync_step));
      return true;
  }
}

TEST(CorruptionFuzzTest, FlippedBitsNeverReachTheFilter) {
  constexpr int kRounds = 2000;

  ServerNode server;
  ASSERT_TRUE(server.RegisterSource(1, ScalarModel()).ok());
  TraceSink sink;
  server.set_trace_sink(&sink);
  ASSERT_TRUE(server.TickAll().ok());

  // The second target: a fusion group whose live member shares the
  // source's id, and whose other member was removed before the first
  // frame. Every frame is re-addressed to the group (the group fields
  // and the sender are checksum-covered, so each copy is framed afresh);
  // each flipped frame goes once from each member, because a flipped
  // frame counts corrupt whoever sent it.
  constexpr int kGroup = 3;
  constexpr int kRemoved = 2;
  FusionEngine fusion{ProtocolOptions(), FaultModel()};
  FusionGroupConfig group;
  group.group_id = kGroup;
  group.model = ScalarModel();
  group.member_ids = {1, kRemoved};
  ASSERT_TRUE(fusion.RegisterGroup(group).ok());
  ASSERT_TRUE(fusion.RemoveMember(kGroup, kRemoved).ok());
  TraceSink fused_sink;
  fusion.set_trace_sink(&fused_sink);
  ASSERT_TRUE(fusion.BeginTick(0).ok());
  auto to_group = [](Message message, int member) {
    message.source_id = member;
    message.group_id = kGroup;
    message.group_version = 0;
    message.checksum = message.ComputeChecksum();
    return message;
  };

  // Prime the predictor with one clean update so there is nontrivial
  // state for corruption to (fail to) disturb.
  Message clean;
  clean.type = MessageType::kMeasurement;
  clean.source_id = 1;
  clean.tick = 0;
  clean.payload = Vector{3.5};
  clean.sequence = 1;
  clean.checksum = clean.ComputeChecksum();
  ASSERT_TRUE(server.OnMessage(clean).ok());
  ASSERT_TRUE(fusion.OnMessage(to_group(clean, 1)).ok());

  Rng rng(4242);
  uint32_t sequence = 2;
  int64_t injected = 0;
  int64_t collisions = 0;
  for (int round = 0; round < kRounds; ++round) {
    // A fresh, valid, framed message of a random protocol type.
    Message message;
    message.source_id = 1;
    message.tick = 0;
    message.sequence = sequence++;
    const double type_draw = rng.Uniform();
    if (type_draw < 0.4) {
      message.type = MessageType::kMeasurement;
      message.payload = Vector{rng.Gaussian(0.0, 10.0)};
    } else if (type_draw < 0.7) {
      message.type = MessageType::kHeartbeat;
    } else {
      message.type = MessageType::kResync;
      message.resync_state = Vector{rng.Gaussian(0.0, 5.0)};
      message.resync_covariance = Matrix::Identity(1);
      message.resync_step = 1;
      // Adapter payload rides along even on this non-adaptive link (the
      // server ignores it after the checksum gate), so its bytes are
      // part of the fuzzed surface.
      message.resync_adapt = Vector{rng.Uniform(), rng.Uniform()};
    }
    message.checksum = message.ComputeChecksum();
    ASSERT_EQ(server.OnMessage(message).ok(), true);  // sanity: valid
    ASSERT_TRUE(fusion.OnMessage(to_group(message, 1)).ok());

    Message corrupted = message;
    corrupted.sequence = sequence++;  // fresh sequence, same content
    Message fused_corrupted = to_group(corrupted, 1);
    Message removed_corrupted = to_group(corrupted, kRemoved);
    corrupted.checksum = corrupted.ComputeChecksum();
    // The fused copies take the very same flip: same draws, same shape.
    Rng fused_rng = rng;
    Rng removed_rng = rng;
    if (!FlipRandomBit(rng, corrupted)) continue;
    ASSERT_TRUE(FlipRandomBit(fused_rng, fused_corrupted));
    ASSERT_TRUE(FlipRandomBit(removed_rng, removed_corrupted));
    if (corrupted.ComputeChecksum() == corrupted.checksum ||
        fused_corrupted.ComputeChecksum() == fused_corrupted.checksum ||
        removed_corrupted.ComputeChecksum() == removed_corrupted.checksum) {
      // An FNV-1a collision (never observed at this seed; tolerated so
      // the test documents the gate's actual contract).
      ++collisions;
      continue;
    }

    const Vector before = server.Answer(1).value();
    const auto faults_before = server.fault_stats().rejected_corrupt;
    const Vector fused_before = fusion.Answer(kGroup).value();
    const ProtocolFaultStats fused_faults_before = fusion.stats().faults;
#if DKF_OBS_ENABLED
    const int64_t events_before = sink.count(TraceEventKind::kCorruptReject);
    const int64_t fused_events_before =
        fused_sink.count(TraceEventKind::kCorruptReject);
#endif

    // Rejection is a protocol event, not an error.
    ASSERT_TRUE(server.OnMessage(corrupted).ok()) << "round " << round;
    ASSERT_TRUE(fusion.OnMessage(fused_corrupted).ok()) << "round " << round;
    ASSERT_TRUE(fusion.OnMessage(removed_corrupted).ok())
        << "round " << round;
    ++injected;

    EXPECT_EQ(fusion.stats().faults.rejected_corrupt,
              fused_faults_before.rejected_corrupt + 2)
        << "round " << round;
    EXPECT_EQ(fusion.stats().faults.rejected_stale,
              fused_faults_before.rejected_stale)
        << "round " << round;
    const Vector fused_after = fusion.Answer(kGroup).value();
    ASSERT_EQ(fused_after.size(), fused_before.size());
    EXPECT_EQ(fused_after[0], fused_before[0])
        << "corrupted frame disturbed the fused posterior, round " << round;
#if DKF_OBS_ENABLED
    EXPECT_EQ(fused_sink.count(TraceEventKind::kCorruptReject),
              fused_events_before + 2)
        << "round " << round;
#endif

    EXPECT_EQ(server.fault_stats().rejected_corrupt, faults_before + 1)
        << "round " << round;
    const Vector after = server.Answer(1).value();
    ASSERT_EQ(after.size(), before.size());
    EXPECT_EQ(after[0], before[0])
        << "corrupted message disturbed filter state, round " << round;
#if DKF_OBS_ENABLED
    EXPECT_EQ(sink.count(TraceEventKind::kCorruptReject), events_before + 1)
        << "round " << round;
#endif
  }

  EXPECT_GT(injected, kRounds / 2);
  EXPECT_EQ(collisions, 0);
  EXPECT_EQ(server.fault_stats().rejected_corrupt, injected);
  EXPECT_EQ(fusion.stats().faults.rejected_corrupt, 2 * injected);
#if DKF_OBS_ENABLED
  EXPECT_EQ(fused_sink.count(TraceEventKind::kCorruptReject), 2 * injected);
  // Exactly one corrupt_reject event per rejection, all attributed to
  // the server actor.
  EXPECT_EQ(sink.count(TraceEventKind::kCorruptReject), injected);
  int64_t corrupt_events = 0;
  for (const TraceEvent& event : sink.Events()) {
    if (event.kind != TraceEventKind::kCorruptReject) continue;
    ++corrupt_events;
    EXPECT_EQ(event.actor, TraceActor::kServer);
    EXPECT_EQ(event.source_id, 1);
  }
  EXPECT_EQ(corrupt_events, injected);
#endif
}

// Focused fuzz for the v4 resync_adapt payload on a link whose noise
// servo is actually on: no flipped adapter bit may ever reach the
// server's servo, so the effective R/Q it would install can never be
// silently skewed by the wire.
TEST(CorruptionFuzzTest, AdapterPayloadCorruptionNeverSkewsNoise) {
  constexpr int kRounds = 600;
  ProtocolOptions protocol;
  protocol.adaptive.enabled = true;
  protocol.adaptive.warmup_corrections = 4;
  ServerNode server(protocol);
  const StateModel model = ScalarModel();
  ASSERT_TRUE(server.RegisterSource(1, model).ok());
  ASSERT_TRUE(server.TickAll().ok());

  // A mirror-side servo with nontrivial state to ship in resyncs.
  auto adapter_or = NoiseAdapter::Create(protocol.adaptive, model);
  ASSERT_TRUE(adapter_or.ok());
  NoiseAdapter mirror_servo = std::move(adapter_or).value();
  auto filter_or = KalmanFilter::Create(model.options);
  ASSERT_TRUE(filter_or.ok());
  KalmanFilter mirror = std::move(filter_or).value();
  Rng rng(9099);
  for (int64_t t = 0; t < 32; ++t) {
    ASSERT_TRUE(mirror.Predict().ok());
    const Vector z{rng.Gaussian(0.0, 2.0)};
    ASSERT_TRUE(mirror_servo.OnCorrection(mirror, z, t).ok());
    ASSERT_TRUE(mirror.Correct(z).ok());
    ASSERT_TRUE(mirror_servo.InstallInto(&mirror).ok());
  }
  ASSERT_NE(mirror_servo.r_scale(), 1.0);

  // One clean resync proves the payload is really consumed: the server
  // servo re-locks to the mirror's exported state.
  uint32_t sequence = 1;
  auto make_resync = [&](int64_t tick) {
    Message message;
    message.type = MessageType::kResync;
    message.source_id = 1;
    message.tick = tick;
    message.sequence = sequence++;
    message.resync_state = Vector{rng.Gaussian(0.0, 5.0)};
    message.resync_covariance = Matrix::Identity(1);
    message.resync_step = 1;
    message.resync_adapt = mirror_servo.ExportState();
    message.checksum = message.ComputeChecksum();
    return message;
  };
  ASSERT_TRUE(server.OnMessage(make_resync(0)).ok());
  auto server_servo_or = server.noise_adapter(1);
  ASSERT_TRUE(server_servo_or.ok());
  ASSERT_TRUE(server_servo_or.value()->StateBitEqual(mirror_servo));

  int64_t injected = 0;
  for (int round = 0; round < kRounds; ++round) {
    Message corrupted = make_resync(0);
    const size_t i = static_cast<size_t>(
        rng.Uniform() * static_cast<double>(corrupted.resync_adapt.size()));
    const size_t bit = static_cast<size_t>(rng.Uniform() * 64.0);
    uint64_t bits;
    std::memcpy(&bits, &corrupted.resync_adapt[i], sizeof(bits));
    bits ^= (1ULL << bit);
    std::memcpy(&corrupted.resync_adapt[i], &bits, sizeof(bits));
    if (corrupted.ComputeChecksum() == corrupted.checksum) continue;

    const auto faults_before = server.fault_stats().rejected_corrupt;
    const Vector servo_before = server.noise_adapter(1).value()->ExportState();
    ASSERT_TRUE(server.OnMessage(corrupted).ok()) << "round " << round;
    ++injected;
    EXPECT_EQ(server.fault_stats().rejected_corrupt, faults_before + 1)
        << "round " << round;
    // The servo state — and with it every future effective Q/R — is
    // untouched by the rejected frame.
    const Vector servo_after = server.noise_adapter(1).value()->ExportState();
    ASSERT_EQ(servo_after.size(), servo_before.size());
    for (size_t j = 0; j < servo_after.size(); ++j) {
      ASSERT_EQ(servo_after[j], servo_before[j])
          << "servo slot " << j << " skewed, round " << round;
    }
  }
  EXPECT_GT(injected, kRounds / 2);
  EXPECT_TRUE(server.noise_adapter(1).value()->StateBitEqual(mirror_servo));
}

}  // namespace
}  // namespace dkf
