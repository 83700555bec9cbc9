#ifndef DKF_METRICS_FAULT_STATS_H_
#define DKF_METRICS_FAULT_STATS_H_

#include <cstdint>

namespace dkf {

/// Counters for the hardened dual-link protocol's fault handling: how
/// often the mirror/server pair diverged, how the resync machinery
/// recovered, and what the server rejected at the door. One instance is
/// kept per SourceNode (source-side fields) and per ServerNode
/// (server-side fields); the engine merges them into one fleet-wide
/// view (ShardedStreamEngine::fault_stats, docs/protocol.md §6).
struct ProtocolFaultStats {
  // ---- source side -------------------------------------------------
  /// Times a source entered the pending-resync state (an update's ACK
  /// came back ambiguous, so the mirror could have diverged from KF_s).
  int64_t divergence_events = 0;
  /// Full-state resync messages transmitted.
  int64_t resyncs_sent = 0;
  /// Heartbeats transmitted (divergence-time bound, see ProtocolOptions).
  int64_t heartbeats_sent = 0;
  /// Sends whose link-layer ACK was ambiguous (lost ACK, in-flight
  /// delay, outage, or corruption — the sender cannot tell which).
  int64_t ambiguous_acks = 0;
  /// Ticks a source ended still pending resync (suppression frozen).
  int64_t ticks_diverged = 0;
  /// Longest single divergence episode, in ticks from detection to the
  /// ACK that healed it.
  int64_t max_recovery_ticks = 0;

  // ---- server side -------------------------------------------------
  /// Resync messages accepted and applied (state overwrite + replay).
  int64_t resyncs_applied = 0;
  /// Heartbeats accepted (liveness refreshed).
  int64_t heartbeats_received = 0;
  /// Messages rejected as stale or duplicate (sequence number not newer
  /// than the last applied one, or a measurement from a past tick).
  int64_t rejected_stale = 0;
  /// Messages rejected by the checksum (payload corruption).
  int64_t rejected_corrupt = 0;
  /// Sequence-number gaps observed on accepted messages (messages the
  /// server can prove it never saw).
  int64_t sequence_gaps = 0;
  /// Source-ticks served degraded (each degraded source counts every
  /// tick it spends degraded).
  int64_t degraded_ticks = 0;

  /// Field-wise accumulation (max for max_recovery_ticks).
  void MergeFrom(const ProtocolFaultStats& other);

  /// Mean divergence-to-heal time in ticks; 0 when nothing diverged.
  double MeanRecoveryTicks() const;

  bool operator==(const ProtocolFaultStats& other) const = default;
};

}  // namespace dkf

#endif  // DKF_METRICS_FAULT_STATS_H_
