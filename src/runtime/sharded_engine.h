#ifndef DKF_RUNTIME_SHARDED_ENGINE_H_
#define DKF_RUNTIME_SHARDED_ENGINE_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "dsms/channel.h"
#include "dsms/energy_model.h"
#include "dsms/protocol.h"
#include "dsms/server_node.h"
#include "governor/delta_governor.h"
#include "metrics/fault_stats.h"
#include "models/state_model.h"
#include "obs/trace_merge.h"
#include "obs/trace_sink.h"
#include "query/aggregate.h"
#include "query/query.h"
#include "query/registry.h"
#include "runtime/shard.h"
#include "runtime/worker_pool.h"

namespace dkf {

class CheckpointAccess;  // src/checkpoint/: snapshot save/restore plumbing

/// The most shards ShardedStreamEngine::Restore builds. A snapshot's
/// shard count is input like any other field, and every shard costs a
/// worker thread plus its own server, channel and trace sink, so a
/// hostile count must fail with a Status instead of exhausting the
/// machine. 64x the cores of a large box; the engine itself takes any
/// count.
inline constexpr int kMaxShards = 256;

/// Configuration of the stream engine.
struct ShardedStreamEngineOptions {
  /// Worker shards the fleet is partitioned across (clamped to >= 1).
  /// The engine keeps num_shards - 1 background threads; the driver
  /// thread works one shard itself during each tick. The default, one
  /// shard, runs everything on the calling thread.
  int num_shards = 1;
  EnergyModelOptions energy;
  /// Per-shard uplink configuration. Fault streams are per source, so a
  /// source's drop sequence is independent of the shard layout (the
  /// determinism contract — see docs/runtime.md).
  ChannelOptions channel;
  /// Delta a source runs at before any query binds to it.
  double default_delta = 1e6;
  /// Hardened-protocol knobs shared by every shard's server and sources.
  ProtocolOptions protocol;
  /// Serving front-end knobs. The backpressure bound applies per shard
  /// (each shard buffers its own subscriptions' notifications).
  ServeOptions serve;
  /// Run every shard on the batched fleet engine (src/fleet/,
  /// docs/fleet.md): steady-state sources are packed into
  /// structure-of-arrays lanes and ticked by flat kernels, bit-identical
  /// to the per-source path at any shard count.
  bool batched_fleet = false;
  /// Fleet-wide delta governor (src/governor/, docs/governor.md). When
  /// governor.enabled, the engine runs one allocation epoch every
  /// governor.epoch_ticks ticks on the driver thread, re-installing
  /// per-source deltas so total uplink spend tracks the configured
  /// bytes/tick budget.
  GovernorOptions governor;
};

/// The paper's Figure-1 system as one object (§6 first future-work item:
/// "developing an end-to-end system"): users submit continuous queries
/// with precision constraints; the engine derives each source's
/// effective delta and smoothing from the registry, installs and
/// reconfigures the dual filters, drives the tick loop, and answers
/// queries from the server-side predictors. Reconfiguration is pushed to
/// the source as a counted control message on the (perfect, out-of-band)
/// downlink, so the cost of query churn is visible.
///
/// Sources are partitioned across N share-nothing shards (each owning
/// its sources' mirrors, server predictors, and uplink channel), ticks
/// run in parallel on a persistent worker pool, and this coordinator
/// merges per-shard stats and answers. At num_shards = 1 (the default)
/// there is no worker thread and the engine is the sequential reference
/// every other layout is bit-identical to.
///
/// Aggregate (SUM) queries split their precision budget into per-source
/// deltas and are answered by summing the members' answers in declared
/// member order, so the precision guarantee |answer - true sum| <=
/// precision is unchanged by sharding and the answer is bit-identical at
/// any shard count (docs/runtime.md).
///
/// Thread contract: the engine is driven from one thread; all
/// parallelism is internal to ProcessTick, which returns only after
/// every worker has finished its shard (so reads between ticks need no
/// locks).
class ShardedStreamEngine {
 public:
  /// Channel options that fail ValidateChannelOptions are not refused
  /// here but by every RegisterSource and RegisterFusionGroup, so such an
  /// engine never sends a message.
  explicit ShardedStreamEngine(const ShardedStreamEngineOptions& options);

  ShardedStreamEngine(ShardedStreamEngine&&) = delete;
  ShardedStreamEngine& operator=(ShardedStreamEngine&&) = delete;

  /// Installs a source and its dual filters on the shard that owns it.
  Status RegisterSource(int source_id, const StateModel& model);

  /// Registers a continuous query and reconfigures its source's shard.
  Status SubmitQuery(const ContinuousQuery& query);

  /// Removes a query and relaxes its source's configuration.
  Status RemoveQuery(int query_id);

  /// Registers a continuous SUM query over scalar sources: the precision
  /// budget is split into per-source deltas (uniformly, or proportional
  /// to `weights`) and installed as synthetic per-source queries, so the
  /// aggregate guarantee holds on every suppressed tick by construction,
  /// regardless of how the members land on shards.
  Status SubmitAggregateQuery(const AggregateQuery& query,
                              const std::vector<double>& weights = {});

  /// Removes an aggregate query and its synthetic per-source queries.
  Status RemoveAggregateQuery(int aggregate_id);

  /// Registers a multi-sensor fusion group (src/fusion/, docs/fusion.md).
  /// The whole group is pinned to the shard ShardIndexFor(group_id)
  /// names — its posterior and every member mirror tick on one worker,
  /// so the intra-tick broadcast diffusion never crosses shards. Member
  /// ids share the per-source namespace and must be disjoint from every
  /// registered source and member engine-wide.
  Status RegisterFusionGroup(const FusionGroupConfig& config);

  /// Adds / removes a member of a live group between ticks. Both charge
  /// one control message on the owning shard.
  Status AddFusionMember(int group_id, int member_id);
  Status RemoveFusionMember(int group_id, int member_id);

  /// Registers a continuous query against a group's fused posterior and
  /// tightens the group's event trigger to the tightest active fused
  /// precision (one control message per member when it changed).
  Status SubmitFusedQuery(const FusedQuery& query);

  /// Removes a fused query; the group's trigger relaxes to the remaining
  /// queries' minimum (or back to its registration delta).
  Status RemoveFusedQuery(int query_id);

  /// The fused answer for a group, read from its owning shard.
  Result<Vector> AnswerFused(int group_id) const;

  /// Fused answer plus projected covariance, inflated while degraded.
  Result<FusionEngine::ConfidentAnswer> AnswerFusedWithConfidence(
      int group_id) const;

  /// Whether a group's fused answers are currently served degraded.
  Result<bool> fused_degraded(int group_id) const;

  /// Fusion-subsystem counters merged across shards.
  FusionStats fusion_stats() const;

  /// The extended mirror-consistency contract over every shard's groups.
  Status VerifyFusedConsistency() const;

  /// The shard index a fusion group is pinned to, or -1 when unknown.
  int fusion_group_shard(int group_id) const {
    auto it = fusion_groups_.find(group_id);
    return it == fusion_groups_.end() ? -1 : it->second;
  }

  size_t num_fusion_groups() const { return fusion_groups_.size(); }
  size_t num_fusion_members() const { return fusion_members_.size(); }

  /// Read access to the fusion subsystem hosting a group (its pinned
  /// shard's engine: topology, trigger, posterior introspection), or
  /// nullptr for an unknown group.
  const FusionEngine* fusion_for_group(int group_id) const;

  /// The current aggregate answer: the members' answers summed in the
  /// aggregate's declared member order — a layout-invariant float
  /// summation, bit-identical to the single-shard answer at any shard
  /// count. This is the value the serving layer delivers.
  Result<double> AnswerAggregateCanonical(int aggregate_id) const;

  /// Aggregate answer plus degradation status: how many member sources
  /// are currently served degraded. The value is
  /// AnswerAggregateCanonical's, summed in the same member order. A
  /// nonzero count voids the aggregate's precision guarantee for this
  /// tick (see docs/protocol.md §6).
  struct AggregateAnswer {
    double value = 0.0;
    int degraded_members = 0;
    bool degraded() const { return degraded_members > 0; }
  };
  Result<AggregateAnswer> AnswerAggregateWithStatus(int aggregate_id) const;

  /// Advances one tick across all shards in parallel. `readings` must
  /// contain exactly one entry per registered source and fusion member.
  /// Converted to a ReadingBatch in ascending id order.
  Status ProcessTick(const std::map<int, Vector>& readings);

  /// The tick input every path ends in: readings as parallel id/value
  /// arrays (any order, one entry per registered source and fusion
  /// member). A malformed batch — a missing, duplicate or foreign id, or
  /// a NaN or infinite value — is rejected with InvalidArgument before
  /// any shard ticks, and ticks() does not advance. The
  /// id layout is partitioned by shard once and reused while it repeats,
  /// so a stable order is fastest.
  Status ProcessTick(const ReadingBatch& batch);

  /// The server-side answer for a source's stream.
  Result<Vector> Answer(int source_id) const;

  /// Answer plus confidence (projected state covariance).
  Result<ServerNode::ConfidentAnswer> AnswerWithConfidence(
      int source_id) const;

  /// Attaches a standing query (src/serve/). Point / band / range
  /// subscriptions are indexed on the shard owning their source and
  /// evaluated there, in parallel, at the tail of each shard tick;
  /// aggregate subscriptions span shards and are evaluated at the
  /// engine after the tick joins. Ids must be unique engine-wide.
  Status Subscribe(const Subscription& subscription);

  /// Detaches a standing query, wherever it lives.
  Status Unsubscribe(int64_t subscription_id);

  /// Per-shard batch streams plus the engine-level aggregate stream,
  /// merged into canonical (step, source_id, subscription_id) order —
  /// bit-identical for the same workload at any shard count. With no
  /// batch pending anywhere it returns an empty vector without
  /// allocating.
  std::vector<NotificationBatch> DrainNotifications();

  /// Serving-layer counters merged across shards.
  ServeStats serve_stats() const;

  size_t num_subscriptions() const;

  /// Verifies the mirror-consistency invariant on every shard.
  Status VerifyMirrorConsistency() const;

  /// The fault-tolerant variant: every non-pending source's mirror must
  /// be bit-identical to its server predictor.
  Status VerifyLinkConsistency() const;

  /// Whether a source's answers are currently served degraded.
  Result<bool> answer_degraded(int source_id) const;

  /// Whether a source is in the pending-resync state.
  Result<bool> resync_pending(int source_id) const;

  /// Protocol fault counters merged across shards.
  ProtocolFaultStats fault_stats() const;

  /// Uplink totals merged across shards.
  ChannelStats uplink_traffic() const;

  /// Control messages merged across shards.
  int64_t control_messages() const;

  int64_t ticks() const { return ticks_; }
  const QueryRegistry& registry() const { return registry_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// Sources currently folded into batch lanes, summed across shards
  /// (always 0 unless options.batched_fleet).
  size_t fleet_resident_count() const;

  /// True while `source_id` is folded into a batch lane (always false
  /// unless options.batched_fleet); NotFound for an unknown id.
  Result<bool> fleet_resident(int source_id) const;

  /// Per-source effective delta currently installed.
  Result<double> source_delta(int source_id) const;

  /// Installs new precision widths directly on many sources at once —
  /// one fan-out per owning shard. Validates every id before touching
  /// anything. This is the governor's installation path, but it is
  /// public API: an operator can pre-seed deltas the same way.
  Status ReconfigureSources(const std::vector<std::pair<int, double>>& deltas);

  /// The delta governor (nullptr unless options.governor.enabled).
  const DeltaGovernor* governor() const { return governor_.get(); }

  /// Lifetime batch-lane spills summed across shards (always 0 unless
  /// options.batched_fleet).
  int64_t fleet_spill_count() const;

  /// Lane spills by reason and absorb rejects by reason, summed across
  /// shards (all 0 unless options.batched_fleet). Identical at any shard
  /// count; fleet_spill_count() is their spill total.
  FleetCounters fleet_counters() const;

  /// Live SourceNodes and shared cold records, summed across shards
  /// (docs/fleet.md, "Memory per source"). `nodes_live` equals the
  /// tracked minus the resident sources and, like residency, is
  /// identical at any shard count; the cold-record counts are per shard
  /// and are not.
  FleetFootprint fleet_footprint() const;

  /// Per-source update totals (source_usage's updates_sent).
  Result<int64_t> updates_sent(int source_id) const;

  /// A source's readings, updates, uplink bytes and sensor energy so far.
  Result<SourceUsage> source_usage(int source_id) const;

  /// The shard index a source id maps to (stable hash partition).
  int ShardIndexFor(int source_id) const;

  /// Turns on observability with one sink per shard (lock-free emission
  /// under the thread contract). Calling again replaces every sink.
  /// InvalidArgument, leaving tracing as it was, when obs.ring_capacity
  /// exceeds kMaxTraceRingCapacity.
  Status EnableTracing(const ObsOptions& obs = ObsOptions());

  /// Unwires and destroys every shard sink; the shards revert to the
  /// zero-cost untraced path. Safe between ticks.
  void DisableTracing();

  /// The per-shard trace streams merged into one deterministic order
  /// (see MergeTraces): with sufficient ring capacity the result is
  /// bit-identical for any shard count.
  std::vector<TraceEvent> MergedTrace() const;

  /// Event counters, gauges, and latency histograms folded across every
  /// shard sink into one registry. Counter/histogram values are sums;
  /// gauges (queue depths) add across shards too, so e.g.
  /// "channel.in_flight" is the fleet-wide depth.
  MetricsRegistry MetricsSnapshot() const;

  /// fleet_counters() as `fleet.spill.<reason>` and
  /// `fleet.absorb_reject.<reason>` gauges, plus fleet_footprint()'s
  /// `fleet.nodes_live`, while tracing is on (empty otherwise, or
  /// without options.batched_fleet). Kept out of
  /// MetricsSnapshot(), which must stay identical with and without the
  /// batched fleet (docs/fleet.md).
  MetricsRegistry FleetMetricsSnapshot() const;

  /// The sink attached to a shard (nullptr while tracing is off; for
  /// tests).
  const TraceSink* shard_sink(int shard) const {
    if (sinks_.empty()) return nullptr;
    return sinks_[static_cast<size_t>(shard)].get();
  }

  /// Writes a deterministic snapshot of the entire engine to `path`
  /// (docs/checkpoint.md). The snapshot is shard-layout-free: per-source
  /// state is stored by source id, in-flight messages canonically
  /// ordered. Call between ticks (ProcessTick has returned).
  /// Defined in src/checkpoint/engine_checkpoint.cc.
  Status Save(const std::string& path) const;

  /// Reconstructs an engine from a snapshot written by Save, at any
  /// shard count: `num_shards` overrides the saved count when > 0
  /// (elastic re-sharding). The restored engine's merged trace, answers, and
  /// fault sequence continue bit-identically to the uninterrupted run.
  /// `batched_fleet` restores onto the batched fleet engine (snapshots
  /// are engine-agnostic: sources restore spilled and re-enter their
  /// lanes at the end of the next tick). InvalidArgument when the
  /// resulting shard count exceeds kMaxShards.
  static Result<std::unique_ptr<ShardedStreamEngine>> Restore(
      const std::string& path, int num_shards = 0,
      bool batched_fleet = false);

 private:
  friend class CheckpointAccess;

  /// The serving layer's view of the engine (sharded_engine.cc).
  class ServeAnswers;

  /// Rejects a tick batch that does not hold exactly one reading per
  /// registered source and fusion member.
  Status CheckReadingCount(size_t count) const;

  /// Partitions a batch layout into per-shard slices (`slices_`), once
  /// per layout: a layout equal to the last accepted one, at unchanged
  /// shard topologies, is reused after one compare. InvalidArgument —
  /// before anything ticks — when some source or fusion member has no
  /// reading (with the count checked, that covers duplicates and foreign
  /// ids too).
  Status PartitionReadings(const std::vector<int>& ids);

  /// The one aggregate summation rule: the members' answers added in
  /// declared member order, plus (when `count_degraded`) how many of
  /// them are served degraded.
  Result<AggregateAnswer> SumAggregate(int aggregate_id,
                                       bool count_degraded) const;

  /// Re-primes the aggregate-serve value caches after a restore.
  Status RefreshServeCaches();

  /// Runs one governor epoch when the tick that just finished completes
  /// an epoch window: samples every source's uplink counters, plans the
  /// allocation, installs changes shard-by-shard, and emits governor
  /// traces/gauges. Driver thread, between the tick join and ++ticks_.
  Status MaybeRunGovernor();

  StreamShard& OwningShard(int source_id) {
    return *shards_[static_cast<size_t>(ShardIndexFor(source_id))];
  }
  const StreamShard& OwningShard(int source_id) const {
    return *shards_[static_cast<size_t>(ShardIndexFor(source_id))];
  }
  bool HasSource(int source_id) const {
    return registered_.contains(source_id);
  }

  ShardedStreamEngineOptions options_;
  /// ValidateChannelOptions(options_.channel), run once.
  Status channel_status_;
  std::vector<std::unique_ptr<StreamShard>> shards_;
  /// Registered source ids (membership only: ShardIndexFor derives the
  /// owning shard, and the shard owns everything else about a source).
  std::set<int> registered_;
  /// Fusion-group topology: group id -> pinned shard index, member id ->
  /// owning group id. Kept engine-wide so id-collision validation and
  /// readings-count checks never have to poll shards.
  std::map<int, int> fusion_groups_;
  std::map<int, int> fusion_members_;

  /// Aggregate id -> member sources (declared order, the summation
  /// order) and their synthetic queries.
  struct AggregateBinding {
    std::vector<int> source_ids;
    std::vector<int> synthetic_query_ids;
  };
  std::map<int, AggregateBinding> aggregates_;

  QueryRegistry registry_;
  /// Engine-level slice of the serving front-end: aggregate
  /// subscriptions only (they need cross-shard sums), evaluated on the
  /// driver thread after every tick joins. Per-source subscriptions
  /// live on the owning shard's own engine.
  SubscriptionEngine aggregate_serve_;
  WorkerPool pool_;
  /// The last accepted batch layout and each shard's slice of it.
  std::vector<int> layout_ids_;
  std::vector<ShardReadingSlice> slices_;
  /// Fleet-wide delta governor (null unless options.governor.enabled).
  std::unique_ptr<DeltaGovernor> governor_;
  int64_t ticks_ = 0;
  /// One observability sink per shard (empty while tracing is off).
  /// Owned here; shards hold raw pointers.
  std::vector<std::unique_ptr<TraceSink>> sinks_;
};

}  // namespace dkf

#endif  // DKF_RUNTIME_SHARDED_ENGINE_H_
