#ifndef DKF_DSMS_PROTOCOL_H_
#define DKF_DSMS_PROTOCOL_H_

#include <algorithm>
#include <cstdint>

#include "common/status.h"
#include "dsms/message.h"
#include "filter/adaptive_noise.h"
#include "linalg/matrix.h"
#include "metrics/fault_stats.h"
#include "obs/trace_sink.h"

namespace dkf {

/// Tunables of the hardened dual-link protocol (divergence detection,
/// resync, heartbeats, degraded answers). The defaults keep legacy
/// behavior on a fault-free or plain-Bernoulli channel: no heartbeats,
/// no staleness-based degradation, and the resync machinery only
/// engages when a send's ACK is ambiguous — which a reliable-ACK
/// channel never produces. See docs/protocol.md §6 for the state
/// machine these knobs drive.
struct ProtocolOptions {
  /// When > 0, a healthy source that has not transmitted anything for
  /// this many ticks sends a heartbeat so the server can distinguish
  /// "suppressed (prediction is fine)" from "link dead". This bounds
  /// the worst-case time an undetected outage can leave the server
  /// serving unflagged answers. 0 disables heartbeats (legacy).
  int64_t heartbeat_interval = 0;

  /// On entering the pending-resync state a source retransmits its
  /// full-state resync every tick for this many attempts...
  int resync_burst_retries = 8;

  /// ...then falls back to one attempt every `resync_retry_backoff`
  /// ticks until an ACK heals the episode, so a long outage costs
  /// bounded bandwidth but recovery is still guaranteed once the link
  /// returns.
  int64_t resync_retry_backoff = 8;

  /// When > 0, the server flags a source degraded once it has heard
  /// nothing valid for `staleness_budget` ticks (with heartbeats on,
  /// silence means loss, not suppression). 1 is the strictest setting:
  /// any tick without a validated arrival is flagged. 0 disables
  /// staleness-based degradation (legacy).
  int64_t staleness_budget = 0;

  /// Covariance inflation applied to degraded answers, per tick overdue:
  /// the reported covariance is scaled by (1 + inflation * overdue).
  double degraded_inflation = 0.25;

  /// Online Q/R adaptation (docs/adaptive.md). Both link endpoints run
  /// identical NoiseAdapter instances over the *transmitted* corrections
  /// only, so the mirror and the server filter adapt bit-identically;
  /// resync messages carry the adapter state to re-lock a healed link.
  /// Disabled by default (fixed nominal noise, legacy behavior).
  AdaptiveNoiseConfig adaptive;
};

/// The `last_resync_tick` of a link no resync ever landed on. Fusion
/// groups always pass it: their answer after a re-lock broadcast is the
/// posterior itself, not a coasted import, so only staleness degrades
/// them.
inline constexpr int64_t kNoResyncTick = -2;

/// The degraded-service rule (docs/protocol.md §6.3), the one copy every
/// tick account and answer path uses. `now` is the last completed tick
/// (negative before the first). A link is degraded on the tick a resync
/// landed on it (that tick's answer is the coasted snapshot, no delta
/// test backed it) and once nothing valid arrived for `staleness_budget`
/// ticks. Returns how many ticks overdue the link is: >= 1 exactly when
/// it is degraded, 0 otherwise.
inline int64_t DegradedOverdueTicks(const ProtocolOptions& protocol,
                                    int64_t now, int64_t last_valid_tick,
                                    int64_t last_resync_tick) {
  if (now < 0) return 0;
  int64_t overdue = 0;
  if (protocol.staleness_budget > 0) {
    overdue = now - last_valid_tick - protocol.staleness_budget + 1;
  }
  if (last_resync_tick == now) overdue = std::max<int64_t>(overdue, 1);
  return std::max<int64_t>(overdue, 0);
}

/// The degraded-service account of one link for the tick `now` that just
/// completed, given its DegradedOverdueTicks: when the link was degraded
/// (`overdue` >= 1), one more `*degraded_ticks` and a kDegradedTick event
/// for `trace_id`. Callers keep their own cheap guard around the loop, so
/// a fault-free run never gets here.
inline void AccountDegradedTick(int64_t overdue, int64_t now, int trace_id,
                                int64_t* degraded_ticks, TraceSink* sink) {
  if (overdue == 0) return;
  ++*degraded_ticks;
  DKF_TRACE(sink, now, trace_id, TraceEventKind::kDegradedTick,
            TraceActor::kServer, static_cast<double>(overdue));
}

/// The factor a degraded answer's variance is scaled by:
/// 1 + degraded_inflation * overdue.
inline double DegradedScale(const ProtocolOptions& protocol,
                            int64_t overdue) {
  return 1.0 + protocol.degraded_inflation * static_cast<double>(overdue);
}

/// Scales every entry of a degraded answer's covariance by DegradedScale.
inline void InflateDegraded(const ProtocolOptions& protocol, int64_t overdue,
                            Matrix* covariance) {
  const double scale = DegradedScale(protocol, overdue);
  for (size_t r = 0; r < covariance->rows(); ++r) {
    for (size_t c = 0; c < covariance->cols(); ++c) {
      (*covariance)(r, c) *= scale;
    }
  }
}

/// The ingress rule (docs/protocol.md §6.1) every server end runs:
/// ServerNode, the fleet's resident lanes (through ServerNode::Admit)
/// and the fusion groups. `*last_sequence` and `*last_valid_tick` are
/// the link's cursors; a null `last_sequence` means an unknown sender (a
/// removed fusion member). A corrupt frame counts rejected_corrupt; an
/// unknown sender's, a duplicate or reordered, or a late measurement or
/// heartbeat counts rejected_stale; each is traced and false returned.
/// An admitted sequenced frame counts its gap and advances both cursors;
/// an admitted heartbeat is counted and traced, which is all it does.
bool AdmitMessage(const Message& message, int64_t now,
                  uint32_t* last_sequence, int64_t* last_valid_tick,
                  ProtocolFaultStats* faults, TraceSink* sink);

/// Whether a healthy source that last sent at `last_send_tick` owes a
/// heartbeat at `tick` (docs/protocol.md §6.2).
inline bool HeartbeatDue(const ProtocolOptions& protocol, int64_t tick,
                         int64_t last_send_tick) {
  return protocol.heartbeat_interval > 0 &&
         tick - last_send_tick >= protocol.heartbeat_interval;
}

/// The bookkeeping of a heartbeat sent at `tick`: takes its sequence
/// number from `*next_sequence`, counts it, restarts the heartbeat clock
/// `*last_send_tick` and emits kHeartbeatSent. Returns the beacon's
/// sequence number. The caller builds and sends the beacon; heartbeats
/// correct nothing, so their ACK is ignored.
inline uint32_t CountHeartbeatSent(int source_id, int64_t tick,
                                   uint32_t* next_sequence,
                                   int64_t* last_send_tick,
                                   ProtocolFaultStats* faults,
                                   TraceSink* sink) {
  const uint32_t sequence = (*next_sequence)++;
  ++faults->heartbeats_sent;
  *last_send_tick = tick;
  DKF_TRACE(sink, tick, source_id, TraceEventKind::kHeartbeatSent,
            TraceActor::kSource, 0.0, 0.0, sequence);
  return sequence;
}

/// The options every sender end checks at registration: a resync episode
/// needs at least one burst attempt and a backoff of at least one tick.
Status ValidateProtocolOptions(const ProtocolOptions& protocol);

/// The sender half of one hardened link (docs/protocol.md §6.2): the
/// wire sequence counter, the heartbeat clock and the divergence
/// episode. SourceNode and every fusion member hold one; the fleet's
/// resident lanes keep the same fields in their own columns. Every owner
/// calls the free heartbeat rules above on these fields. The rules take
/// the owner's id, fault counters and trace sink.
struct LinkSender {
  /// Next wire sequence number (0 is reserved for "unsequenced").
  uint32_t next_sequence = 1;
  /// In the pending-resync state: suppression frozen, resyncs due per
  /// ResyncDue until the episode heals.
  bool pending = false;
  int64_t pending_since = 0;
  int32_t resync_attempts = 0;
  /// SourceNode starts at -1 and a fusion member at 0. Only snapshots
  /// see the difference (the first resync of an episode is always due),
  /// and they encode it, so each owner keeps its own start.
  int64_t last_resync_tick = -1;
  /// Tick of the last transmission attempt of any kind (heartbeat
  /// pacing); -1 = never sent.
  int64_t last_send_tick = -1;

  /// A resync is due every tick for the first resync_burst_retries
  /// attempts of an episode, then every resync_retry_backoff ticks.
  bool ResyncDue(const ProtocolOptions& protocol, int64_t tick) const {
    return resync_attempts < protocol.resync_burst_retries ||
           tick - last_resync_tick >= protocol.resync_retry_backoff;
  }

  /// A measurement with sequence `sequence` came back kNoAck: counts the
  /// ambiguous ACK and the divergence, emits kDivergence and starts the
  /// episode at `tick`.
  void EnterDivergence(int source_id, int64_t tick, uint32_t sequence,
                       ProtocolFaultStats* faults, TraceSink* sink);

  /// The bookkeeping of a resync sent at `tick`: takes its sequence
  /// number, counts the attempt, restarts both clocks and emits
  /// kResyncSent. Returns the resync's sequence number.
  uint32_t CountResyncSent(int source_id, int64_t tick,
                           ProtocolFaultStats* faults, TraceSink* sink);

  /// Leaves the pending state at `tick`, recording the episode length in
  /// max_recovery_ticks and a kHeal event.
  void Heal(int source_id, int64_t tick, ProtocolFaultStats* faults,
            TraceSink* sink);

  /// The end-of-tick count: one ticks_diverged while still pending.
  void CountDivergedTick(ProtocolFaultStats* faults) const {
    if (pending) ++faults->ticks_diverged;
  }
};

}  // namespace dkf

#endif  // DKF_DSMS_PROTOCOL_H_
