#ifndef DKF_DSMS_PROTOCOL_H_
#define DKF_DSMS_PROTOCOL_H_

#include <algorithm>
#include <cstdint>

#include "filter/adaptive_noise.h"
#include "linalg/matrix.h"

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

}  // namespace dkf

#endif  // DKF_DSMS_PROTOCOL_H_
