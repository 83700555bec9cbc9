#ifndef DKF_DSMS_FAULT_MODEL_H_
#define DKF_DSMS_FAULT_MODEL_H_

#include <cstdint>
#include <optional>
#include <vector>

namespace dkf {

/// Two-state Markov (Gilbert–Elliott) loss: the link alternates between
/// a good and a bad state with the given per-message transition
/// probabilities, and drops each message with the state's loss rate.
/// Models bursty wireless loss, unlike the independent Bernoulli drops
/// of ChannelOptions::drop_probability.
struct GilbertElliottLoss {
  double p_good_to_bad = 0.0;
  double p_bad_to_good = 1.0;
  double good_loss = 0.0;
  double bad_loss = 1.0;
};

/// Per-message delivery delay in whole ticks, drawn uniformly from
/// [min_ticks, max_ticks]. A message drawn > 0 enters the channel's
/// in-flight queue and reaches the server only when the tick loop drains
/// it, after the server has already ticked past the send tick; mixing
/// zero and nonzero draws reorders messages.
struct DelayModel {
  int64_t min_ticks = 0;
  int64_t max_ticks = 0;
};

/// A scheduled outage: every message sent at a tick in [start, end) is
/// silently lost (no ACK — the sender cannot distinguish an outage from
/// a slow link).
struct OutageWindow {
  int64_t start = 0;
  int64_t end = 0;
};

/// Pluggable fault injection for Channel, layered on top of the legacy
/// Bernoulli `drop_probability`. The default-constructed model injects
/// nothing and leaves the channel's behavior (including its RNG draw
/// sequence) bit-identical to the pre-fault-layer code.
///
/// Every random decision is drawn from the channel's per-source stream
/// in a fixed order, so fault schedules are deterministic and invariant
/// under the shard layout.
///
/// ACK semantics: plain Bernoulli and Gilbert–Elliott losses keep the
/// legacy reliable link-layer ACK (the sender learns the message was
/// lost, unless ack_loss_probability also applies). Outages, delays,
/// corruption, and lost ACKs return `SendAck::kNoAck`: the sender
/// cannot tell whether the server got the message — the divergence-
/// inducing case the resync protocol exists for.
struct FaultModel {
  std::optional<GilbertElliottLoss> gilbert_elliott;
  std::optional<DelayModel> delay;
  std::vector<OutageWindow> outages;

  /// Probability that a delivered message's ACK is lost on the way back.
  double ack_loss_probability = 0.0;

  /// Probability that a message's payload is corrupted in flight. The
  /// corrupted message still reaches the sink (where the checksum
  /// rejects it) and yields no ACK.
  double corruption_probability = 0.0;

  /// Ticks >= this value inject no faults — a clean tail for chaos
  /// harnesses that must observe full recovery.
  int64_t active_until = INT64_MAX;

  bool any() const {
    return gilbert_elliott.has_value() || delay.has_value() ||
           !outages.empty() || ack_loss_probability > 0.0 ||
           corruption_probability > 0.0;
  }

  bool ActiveAt(int64_t tick) const { return any() && tick < active_until; }

  bool InOutage(int64_t tick) const {
    for (const OutageWindow& window : outages) {
      if (tick >= window.start && tick < window.end) return true;
    }
    return false;
  }
};

}  // namespace dkf

#endif  // DKF_DSMS_FAULT_MODEL_H_
