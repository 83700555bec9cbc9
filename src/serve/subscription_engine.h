#ifndef DKF_SERVE_SUBSCRIPTION_ENGINE_H_
#define DKF_SERVE_SUBSCRIPTION_ENGINE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "obs/trace_sink.h"
#include "serve/interval_index.h"
#include "serve/subscription.h"

namespace dkf {

/// Serving-layer knobs.
struct ServeOptions {
  /// Backpressure bound: the maximum number of undrained notifications
  /// the engine retains. When a tick pushes the buffer past the bound,
  /// whole batches are evicted oldest-first (a slow subscriber loses
  /// the oldest ticks, never the newest), counted in ServeStats::dropped
  /// and traced as notify_drop events. Clamped to >= 1.
  uint64_t max_buffered_notifications = uint64_t{1} << 20;

  friend bool operator==(const ServeOptions&, const ServeOptions&) = default;
};

/// Serving-layer counters. `touched` is the number of subscriptions the
/// fan-out machinery examined (index candidates, point deliveries,
/// uncertainty-cursor crossings, aggregate members of a moved
/// aggregate); `affected` is how many of those produced a notification.
/// touched / affected is the fan-out efficiency the bench gate watches:
/// it must track the *affected* count, not the registration count.
struct ServeStats {
  int64_t subscriptions = 0;  // currently registered
  int64_t notifications = 0;  // emitted into batches (incl. initials)
  int64_t dropped = 0;        // evicted undrained by backpressure
  int64_t touched = 0;
  int64_t affected = 0;

  void MergeFrom(const ServeStats& other) {
    subscriptions += other.subscriptions;
    notifications += other.notifications;
    dropped += other.dropped;
    touched += other.touched;
    affected += other.affected;
  }
};

/// How the engine reads answers out of its host — the only coupling
/// between src/serve/ and the systems it serves. Each StreamShard and
/// the engine's aggregate level implement
/// this over their own server-side state. All reads are component 0 of
/// the answer (scalar streams), matching aggregate-query semantics.
class ServeAnswerSource {
 public:
  virtual ~ServeAnswerSource() = default;
  /// Component 0 of the source's answer. When `variance` is non-null it
  /// also receives the projected state variance of that component (0
  /// when the predictor does not expose a covariance), inflated while
  /// the answer is served degraded. The engine makes exactly one call
  /// per watched source per tick and asks for the variance only where a
  /// ceiling watches it.
  virtual Result<double> SourceValue(int source_id, double* variance) const = 0;
  virtual Result<double> AggregateValue(int aggregate_id) const = 0;
  /// Current fused posterior answer for a fusion group (component 0).
  /// Hosts without a fusion engine keep the default, which rejects any
  /// kFused subscription at attach time.
  virtual Result<double> FusedValue(int group_id) const {
    (void)group_id;
    return Status::InvalidArgument("host does not serve fused groups");
  }
};

/// One subscription plus the serving-layer state that makes delivery a
/// pure function of the tick stream (and hence checkpointable): the
/// band/range membership and the uncertainty-alert latch.
struct SubscriptionState {
  Subscription spec;
  bool inside = false;  // band/range: estimate currently in [lo, hi]
  bool fired = false;   // band: variance currently above the ceiling
};

/// The serving front-end: standing queries in, deterministically
/// ordered notification batches out.
///
/// The engine is driven by its host. `Subscribe` attaches a standing
/// query between ticks and evaluates its initial answer against that
/// single engine state (the snapshot-consistency contract: the host is
/// quiescent between ticks, exactly the state a checkpoint would
/// capture there). `EndTick(step, answers)` runs after the host's
/// protocol tick for `step` and appends at most one batch: per-tick
/// work is O(watched sources) + O(affected subscriptions) — per-source
/// fan-out lists for point queries, an IntervalIndex per source for
/// band/range predicates, a sorted uncertainty cursor per source for
/// variance ceilings, and member fan-out lists for aggregates. `Drain`
/// hands the buffered batches to the subscriber side and advances the
/// delivery cursor.
///
/// Subscriptions live in a dense slot table. The id -> slot map serves
/// only the between-tick API (Subscribe, Unsubscribe, has_subscription,
/// ExportSubscriptions); the interval index and the uncertainty cursor
/// carry slots, so EndTick never looks up an id.
///
/// Thread contract: same as its host component. Inside a StreamShard
/// the engine is driven from the shard's worker during ProcessTick and
/// from the driver thread between ticks, never concurrently.
class SubscriptionEngine {
 public:
  explicit SubscriptionEngine(const ServeOptions& options = ServeOptions());

  /// Attaches a standing query and enqueues its initial notification
  /// (kind `initial`, stamped `attach_step` = the host's current tick
  /// count, so it sorts ahead of the notifications tick `attach_step`
  /// itself will produce). `aggregate_members` carries the member
  /// source ids for kAggregate subscriptions (the host resolves the
  /// binding) and must be empty otherwise.
  Status Subscribe(const Subscription& subscription, int64_t attach_step,
                   const ServeAnswerSource& answers,
                   const std::vector<int>& aggregate_members = {});

  /// Detaches a subscription. Already-buffered notifications for it are
  /// not retracted.
  Status Unsubscribe(int64_t subscription_id);

  bool has_subscription(int64_t subscription_id) const {
    return slot_of_.contains(subscription_id);
  }

  /// Whether any standing subscription targets this aggregate. Hosts
  /// refuse to remove an aggregate query that still has subscribers
  /// (the members list would dangle).
  bool has_aggregate_subscriptions(int aggregate_id) const {
    return aggregates_.contains(aggregate_id);
  }
  size_t num_subscriptions() const { return slot_of_.size(); }

  /// Evaluates every affected subscription against the host's state
  /// after tick `step` and appends the tick's batch (none when nothing
  /// fired). Call exactly once per host tick, after the protocol work.
  Status EndTick(int64_t step, const ServeAnswerSource& answers);

  /// Moves out every buffered batch (oldest first) and advances the
  /// delivery cursor past them.
  std::vector<NotificationBatch> Drain();

  /// Buffered batches not yet drained (oldest first).
  const std::deque<NotificationBatch>& pending() const { return pending_; }

  /// The last step handed out by Drain (-1 before the first drain).
  int64_t drained_through_step() const { return drained_through_step_; }

  /// Counters plus the live registration count.
  ServeStats stats() const;

  const ServeOptions& options() const { return options_; }

  /// Wires serve events (subscribe / notify / notify_drop) into an
  /// observability sink; nullptr unwires. The host hands the engine the
  /// same sink as the component that owns it, so merged traces stay
  /// layout-invariant.
  void set_trace_sink(TraceSink* sink) { sink_ = sink; }

  // ---- checkpoint hooks (src/checkpoint/engine_checkpoint.cc) -------

  /// Every registration plus its delivery state, ascending id.
  std::vector<SubscriptionState> ExportSubscriptions() const;

  /// Re-attaches a saved subscription with its delivery state intact —
  /// no initial notification, no state re-derivation.
  Status ImportSubscription(const SubscriptionState& state,
                            const std::vector<int>& aggregate_members = {});

  /// Replaces the undrained buffer and cursor (restore fan-back).
  void RestorePending(std::vector<NotificationBatch> batches,
                      int64_t drained_through_step);

  /// Replaces the lifetime counters (the subscription count field is
  /// ignored — it is derived).
  void RestoreStats(const ServeStats& stats);

  /// Re-primes the per-source and per-aggregate value caches from the
  /// host's (restored) state. Call once after the last
  /// ImportSubscription; the caches are pure functions of engine state,
  /// so delivery continues bit-identically.
  Status RefreshCaches(const ServeAnswerSource& answers);

 private:
  /// One entry of the uncertainty cursor.
  struct Ceiling {
    double ceiling = 0.0;
    uint32_t slot = 0;
  };

  /// Per-source fan-out state: who to touch when this source's answer
  /// moves.
  struct PerSource {
    int source_id = 0;
    std::vector<int64_t> point_subs;  // ascending id
    IntervalIndex intervals;          // band + range predicates
    /// Ascending by (ceiling, subscription id) — the uncertainty cursor.
    /// The fired prefix (ceilings strictly below the current variance)
    /// is exactly the set of latched subscriptions.
    std::vector<Ceiling> ceilings;
    bool ceilings_dirty = false;
    size_t ceilings_fired = 0;
    /// Aggregates watching this source.
    std::vector<int> aggregates;
    double last_value = 0.0;
    bool has_value = false;

    bool Empty() const {
      return point_subs.empty() && intervals.empty() && ceilings.empty() &&
             aggregates.empty();
    }
  };

  struct PerAggregate {
    std::vector<int64_t> subs;  // ascending id
    std::vector<int> members;
    double last_value = 0.0;
    bool has_value = false;
  };

  /// Fan-out state for one watched fusion group: notify `subs` whenever
  /// the fused posterior answer moves.
  struct PerFused {
    std::vector<int64_t> subs;  // ascending id
    double last_value = 0.0;
    bool has_value = false;
  };

  Status Attach(const SubscriptionState& state,
                const std::vector<int>& aggregate_members);
  /// Where `source_id`'s fan-out state is or would go in `sources_`;
  /// that state (nullptr when unwatched); and the find-or-insert used at
  /// attach time.
  std::vector<PerSource>::iterator SourcePosition(int source_id);
  PerSource* FindSource(int source_id);
  PerSource& WatchSource(int source_id);
  /// Drops a source's fan-out state once nothing watches it.
  void ReleaseIfUnwatched(PerSource* per_source);
  void PushNotification(std::vector<Notification>* out, int64_t step,
                        int32_t source_key, int64_t subscription_id,
                        NotificationKind kind, double value, double aux);
  void AppendBatch(NotificationBatch batch);
  void RebuildCeilings(PerSource& per_source);
  Result<double> CurrentValue(const Subscription& spec,
                              const ServeAnswerSource& answers) const;

  ServeOptions options_;
  /// Dense subscription table; freed slots are reused.
  std::vector<SubscriptionState> slots_;
  std::vector<uint32_t> free_slots_;
  std::unordered_map<int64_t, uint32_t> slot_of_;  // id -> slot
  std::vector<PerSource> sources_;  // ascending source id
  std::map<int, PerAggregate> aggregates_;
  std::map<int, PerFused> fused_;
  std::deque<NotificationBatch> pending_;
  uint64_t pending_notifications_ = 0;
  int64_t drained_through_step_ = -1;
  ServeStats counters_;  // subscriptions field unused (derived)
  TraceSink* sink_ = nullptr;
};

/// The ordering key aggregate notifications use in place of a source id.
inline int32_t AggregateSourceKey(int aggregate_id) {
  return -1 - aggregate_id;
}

}  // namespace dkf

#endif  // DKF_SERVE_SUBSCRIPTION_ENGINE_H_
