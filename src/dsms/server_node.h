#ifndef DKF_DSMS_SERVER_NODE_H_
#define DKF_DSMS_SERVER_NODE_H_

#include <map>
#include <memory>
#include <optional>

#include "common/result.h"
#include "core/predictor.h"
#include "dsms/message.h"
#include "dsms/protocol.h"
#include "metrics/fault_stats.h"
#include "models/state_model.h"
#include "obs/trace_sink.h"

namespace dkf {

/// The central server: one predictor KF_s per registered source, advanced
/// every tick and corrected only when an update message arrives. Continuous
/// queries are answered from the predictors without contacting the sources.
///
/// The hardened ingress (docs/protocol.md §6) validates every sequenced
/// message before it can touch a filter: the wire checksum catches
/// corruption, per-source sequence numbers catch duplicates and reorderings,
/// and a freshness check rejects late measurements (the mirror was never
/// corrected for those, so applying them would *cause* divergence).
/// Rejections are protocol events, not errors — they are counted and the
/// message is discarded. A kResync message overwrites the predictor with
/// the mirror's snapshot and replays the ticks the snapshot missed in
/// flight, re-locking the pair bit-exactly by construction.
class ServerNode {
 public:
  ServerNode() = default;
  explicit ServerNode(const ProtocolOptions& protocol)
      : protocol_(protocol) {}
  ServerNode(ServerNode&&) = default;
  ServerNode& operator=(ServerNode&&) = default;

  /// Installs a predictor for `source_id` built from `model`. Errors when
  /// the id is already registered.
  Status RegisterSource(int source_id, const StateModel& model);

  /// RegisterSource from a prototype instead of a model: installs a clone
  /// of `predictor` and a copy of `adapter` (which must be what
  /// RegisterSource would build for the same model — a disabled adapter
  /// when adaptation is off). The batched fleet engine re-registers
  /// spilled sources this way without re-deriving the filter.
  Status RegisterSourceLike(int source_id, const Predictor& predictor,
                            const NoiseAdapter& adapter);

  /// Removes a source's predictor.
  Status UnregisterSource(int source_id);

  /// Advances every source predictor by one tick. Call exactly once per
  /// simulation tick, before delivering that tick's messages.
  Status TickAll();

  /// Advances exactly one source's predictor, without touching the tick
  /// clock or degraded-link accounting. Used by the batched fleet engine
  /// when it spills a lane mid-tick: the freshly re-registered predictor
  /// must catch up to the tick that TickAll (spilled sources only) already
  /// applied to everyone else.
  Status TickSource(int source_id);

  /// Applies an update, resync, heartbeat, or model-switch message.
  Status OnMessage(const Message& message);

  /// AdmitMessage (dsms/protocol.h), the ingress rule, at this server's
  /// current tick, counting into fault_stats() and tracing to this
  /// server's sink, for a message on a link whose sequence bookkeeping
  /// is `*last_sequence` and `*last_valid_tick`. OnMessage applies the
  /// admitted measurements and resyncs; the batched fleet engine admits
  /// its resident lanes' heartbeats here, so every count lands in
  /// fault_stats().
  bool Admit(const Message& message, uint32_t* last_sequence,
             int64_t* last_valid_tick);

  /// The server's current answer for `source_id`'s stream value.
  Result<Vector> Answer(int source_id) const;

  /// An answer plus its uncertainty. The covariance is the predictor's
  /// state covariance projected through the measurement map; it grows
  /// during suppression runs (the longer the source stays silent, the
  /// wider the confidence band) and collapses on each update. Empty for
  /// point predictors. `degraded` is set — and the covariance further
  /// inflated — when the link is overdue (nothing valid heard within the
  /// staleness budget) or recovering from a resync this very tick; a
  /// degraded answer carries no delta guarantee.
  struct ConfidentAnswer {
    Vector value;
    std::optional<Matrix> covariance;
    bool degraded = false;
  };
  Result<ConfidentAnswer> AnswerWithConfidence(int source_id) const;

  /// Component 0 of Answer(); when `variance` is non-null it receives
  /// AnswerWithConfidence's covariance(0, 0) (0 without a covariance),
  /// inflated the same way while degraded. One predictor lookup and no
  /// vector or matrix temporaries — the serving layer's per-tick read.
  Result<double> AnswerScalar(int source_id, double* variance) const;

  /// Whether answers for `source_id` are currently served degraded.
  Result<bool> degraded(int source_id) const;

  /// Tick index (0-based) of the last applied correction — measurement or
  /// resync — for `source_id`; -1 before the first. Lets harnesses tell
  /// corrected answers apart from pure predictions.
  Result<int64_t> last_update_tick(int source_id) const;

  /// Server-side protocol fault counters (rejections, resyncs applied,
  /// degraded ticks).
  const ProtocolFaultStats& fault_stats() const { return faults_; }

  /// Number of TickAll calls so far.
  int64_t ticks() const { return ticks_done_; }

  /// The predictor backing a source (for tests).
  Result<const Predictor*> predictor(int source_id) const;

  /// The server-side noise adaptation servo for a source (for tests and
  /// gauges); disabled unless ProtocolOptions::adaptive.enabled.
  Result<const NoiseAdapter*> noise_adapter(int source_id) const;

  size_t num_sources() const { return links_.size(); }

  /// Wires an observability sink: every ingress outcome (update applied,
  /// resync applied, heartbeat, corrupt/stale rejection) and every tick
  /// served degraded becomes a trace event; server-side filters forward
  /// their fast-path transitions as server_filter events. Applies to
  /// already-registered sources and to later registrations. Pass nullptr
  /// to unwire.
  void set_trace_sink(TraceSink* sink);

  /// Checkpoint hooks (src/checkpoint/, docs/checkpoint.md): one source's
  /// KF_s full state plus its link ingress bookkeeping.
  struct LinkSnapshot {
    uint32_t last_sequence = 0;
    int64_t last_valid_tick = -1;
    int64_t last_resync_tick = kNoResyncTick;
    int64_t last_update_tick = -1;
    KalmanFilter::FullState predictor;
    /// NoiseAdapter::ExportState() payload; empty when adaptation is off
    /// (docs/checkpoint.md).
    Vector adapt;
  };

  Result<LinkSnapshot> ExportLink(int source_id) const;

  /// Restores a source registered with the same model. Errors when the
  /// source is unknown or dimensions disagree.
  Status RestoreLink(int source_id, const LinkSnapshot& snapshot);

  /// Rewinds/advances the tick counter to a checkpoint's value. Call
  /// before RegisterSource so the per-link staleness clocks initialize
  /// consistently.
  void RestoreClock(int64_t ticks_done) { ticks_done_ = ticks_done; }

  /// Overwrites the server-wide fault counters with a checkpoint's
  /// aggregate.
  void RestoreFaultStats(const ProtocolFaultStats& faults) {
    faults_ = faults;
  }

 private:
  /// One registered source: its predictor KF_s plus the per-link ingress
  /// state of the hardened protocol.
  struct Link {
    std::unique_ptr<Predictor> predictor;
    uint32_t last_sequence = 0;
    /// Tick of the last validated arrival (measurement, resync, or
    /// heartbeat); -1 before the first.
    int64_t last_valid_tick = -1;
    /// Tick at which the last resync was applied.
    int64_t last_resync_tick = kNoResyncTick;
    /// Tick of the last applied correction; -1 = never.
    int64_t last_update_tick = -1;
    /// Server half of the Q/R servo; adapts on exactly the corrections
    /// it applies, mirroring the source (docs/adaptive.md).
    NoiseAdapter adapter;
  };

  /// The link of `source_id`, or nullptr when it is not registered.
  const Link* FindLink(int source_id) const;
  Link* FindLink(int source_id);

  /// DegradedOverdueTicks for the link at the last completed tick:
  /// >= 1 exactly when the link is degraded.
  int64_t OverdueTicks(const Link& link) const;

  ProtocolOptions protocol_;
  std::map<int, Link> links_;
  ProtocolFaultStats faults_;
  int64_t ticks_done_ = 0;
  TraceSink* obs_sink_ = nullptr;
};

}  // namespace dkf

#endif  // DKF_DSMS_SERVER_NODE_H_
