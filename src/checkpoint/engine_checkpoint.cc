/// Save/Restore for ShardedStreamEngine (docs/checkpoint.md). This file
/// is the only code with checkpoint access to the engine's internals:
/// CheckpointAccess is the friend class the engine and shard headers
/// declare, so the snapshot plumbing stays out of the hot-path
/// translation units entirely.

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "checkpoint/snapshot.h"
#include "checkpoint/snapshot_io.h"
#include "common/string_util.h"
#include "runtime/shard.h"
#include "runtime/sharded_engine.h"
#include "serve/subscription.h"
#include "serve/subscription_engine.h"

namespace dkf {

namespace {

/// Canonical in-flight gauge name (the one gauge that is re-derived per
/// shard on restore instead of copied, because its per-shard split
/// follows the target layout).
constexpr char kInFlightGauge[] = "channel.in_flight";

std::array<int64_t, kNumTraceEventKinds> CountKinds(
    const std::vector<TraceEvent>& events) {
  std::array<int64_t, kNumTraceEventKinds> counts{};
  for (const TraceEvent& event : events) {
    ++counts[static_cast<size_t>(event.kind)];
  }
  return counts;
}

/// All registered queries, ascending id — synthetic aggregate members
/// included, so a restore replays the registry verbatim.
std::vector<ContinuousQuery> CollectQueries(const QueryRegistry& registry) {
  std::vector<ContinuousQuery> queries;
  for (int source_id : registry.ActiveSources()) {
    for (const ContinuousQuery& query : registry.QueriesForSource(source_id)) {
      queries.push_back(query);
    }
  }
  std::sort(queries.begin(), queries.end(),
            [](const ContinuousQuery& a, const ContinuousQuery& b) {
              return a.id < b.id;
            });
  return queries;
}

/// All registered fused queries, ascending id — replayed verbatim on
/// restore (no reconfiguration runs; each group's effective delta is
/// already exact in its GroupState).
std::vector<FusedQuery> CollectFusedQueries(const QueryRegistry& registry) {
  std::vector<FusedQuery> queries;
  for (int group_id : registry.ActiveGroups()) {
    for (const FusedQuery& query : registry.FusedQueriesForGroup(group_id)) {
      queries.push_back(query);
    }
  }
  std::sort(queries.begin(), queries.end(),
            [](const FusedQuery& a, const FusedQuery& b) {
              return a.id < b.id;
            });
  return queries;
}

/// Folds one serving engine's registrations, undrained buffer, cursor,
/// and counters into the snapshot accumulators. The caller merges the
/// collected streams and sorts the subscriptions once every engine has
/// been folded.
void FoldServe(const SubscriptionEngine& serve, ServeSnapshot* out,
               std::vector<std::vector<NotificationBatch>>* streams) {
  for (const SubscriptionState& state : serve.ExportSubscriptions()) {
    ServeSubscriptionSnapshot sub;
    sub.spec = state.spec;
    sub.inside = state.inside;
    sub.fired = state.fired;
    out->subscriptions.push_back(std::move(sub));
  }
  streams->push_back(std::vector<NotificationBatch>(serve.pending().begin(),
                                                    serve.pending().end()));
  out->drained_through_step =
      std::max(out->drained_through_step, serve.drained_through_step());
  const ServeStats stats = serve.stats();
  out->notifications += stats.notifications;
  out->dropped += stats.dropped;
  out->touched += stats.touched;
  out->affected += stats.affected;
}

ServeStats ServeCounters(const ServeSnapshot& serve) {
  ServeStats stats;
  stats.notifications = serve.notifications;
  stats.dropped = serve.dropped;
  stats.touched = serve.touched;
  stats.affected = serve.affected;
  return stats;
}

}  // namespace

/// The one class befriended by StreamShard and ShardedStreamEngine.
/// Stateless; every method is a static pass over one engine's
/// internals.
class CheckpointAccess {
 public:
  static Result<EngineSnapshot> Capture(const ShardedStreamEngine& engine) {
    EngineSnapshot snapshot;
    snapshot.energy = engine.options_.energy;
    snapshot.channel = engine.options_.channel;
    // Channels always draw per-source fault streams, whatever the
    // (ignored) option says; the snapshot records the effective value.
    snapshot.channel.per_source_rng = true;
    snapshot.default_delta = engine.options_.default_delta;
    snapshot.protocol = engine.options_.protocol;
    snapshot.num_shards = static_cast<int>(engine.shards_.size());
    snapshot.ticks = engine.ticks_;
    snapshot.control_messages = engine.control_messages();

    for (int source_id : engine.registered_) {
      const StreamShard& shard = engine.OwningShard(source_id);
      SourceSnapshot source;
      source.source_id = source_id;
      // Routed exports: a batch-resident source (src/fleet/) reports its
      // nominal group's recipe and synthesizes the exact per-source state
      // a spilled run would capture, so the snapshot bytes are
      // engine-agnostic.
      DKF_ASSIGN_OR_RETURN(const StateModel* model,
                           shard.source_model(source_id));
      source.model = *model;
      DKF_ASSIGN_OR_RETURN(source.node, shard.ExportSourceState(source_id));
      DKF_ASSIGN_OR_RETURN(source.link, shard.ExportLinkState(source_id));
      source.channel = shard.channel_.ExportSourceCheckpoint(source_id);
      snapshot.sources.push_back(std::move(source));
    }

    for (const auto& shard : engine.shards_) {
      snapshot.server_faults.MergeFrom(shard->server_.fault_stats());
      // Degraded ticks accounted on batch lanes live in the fleet
      // engine; fold them in so the merged counters match a per-source
      // run's server-side totals.
      if (shard->fleet_ != nullptr) {
        snapshot.server_faults.degraded_ticks +=
            shard->fleet_->degraded_ticks();
      }
    }

    snapshot.queries = CollectQueries(engine.registry_);
    for (const auto& [id, binding] : engine.aggregates_) {
      AggregateSnapshot aggregate;
      aggregate.id = id;
      aggregate.source_ids = binding.source_ids;
      aggregate.synthetic_query_ids = binding.synthetic_query_ids;
      snapshot.aggregates.push_back(std::move(aggregate));
    }

    if (!engine.sinks_.empty()) {
      snapshot.obs.enabled = true;
      snapshot.obs.options = engine.sinks_[0]->options();
      snapshot.obs.events = engine.MergedTrace();
      for (const auto& sink : engine.sinks_) {
        for (int k = 0; k < kNumTraceEventKinds; ++k) {
          snapshot.obs.kind_counts[static_cast<size_t>(k)] +=
              sink->count(static_cast<TraceEventKind>(k));
        }
        snapshot.obs.dropped += sink->dropped_events();
        for (const auto& [name, value] : sink->gauges()) {
          snapshot.obs.gauges[name] += value;
        }
      }
    }

    // Serving front-end: every engine's registrations collected in one
    // shard-layout-free list, the per-engine undrained buffers merged
    // into the canonical stream (the order DrainNotifications would
    // hand out).
    snapshot.serve.options = engine.options_.serve;
    std::vector<std::vector<NotificationBatch>> serve_streams;
    FoldServe(engine.aggregate_serve_, &snapshot.serve, &serve_streams);
    for (const auto& shard : engine.shards_) {
      FoldServe(shard->serve_, &snapshot.serve, &serve_streams);
    }
    std::sort(snapshot.serve.subscriptions.begin(),
              snapshot.serve.subscriptions.end(),
              [](const ServeSubscriptionSnapshot& a,
                 const ServeSubscriptionSnapshot& b) {
                return a.spec.id < b.spec.id;
              });
    snapshot.serve.pending =
        MergeNotificationBatches(std::move(serve_streams));

    // Delta governor: the configured control law plus every source's
    // controller state, keyed by source id like everything else — a
    // mid-epoch restore at any shard count resumes the exact same delta
    // schedule.
    if (engine.governor_ != nullptr) {
      snapshot.governor.enabled = true;
      snapshot.governor.options = engine.options_.governor;
      snapshot.governor.epochs = engine.governor_->epochs();
      for (const auto& [source_id, state] : engine.governor_->states()) {
        GovernorSourceSnapshot entry;
        entry.source_id = source_id;
        entry.state = state;
        snapshot.governor.states.push_back(entry);
      }
    }

    // Fusion groups, collected across shards and ordered by group id so
    // the snapshot is shard-layout-free like everything else.
    for (const auto& shard : engine.shards_) {
      for (FusionEngine::GroupState& group : shard->fusion_.ExportGroups()) {
        FusionGroupSnapshot entry;
        entry.member_channels.reserve(group.members.size());
        for (const FusionEngine::MemberState& member : group.members) {
          entry.member_channels.push_back(
              shard->channel_.ExportSourceCheckpoint(member.source_id));
        }
        entry.group = std::move(group);
        snapshot.fusion_groups.push_back(std::move(entry));
      }
    }
    std::sort(snapshot.fusion_groups.begin(), snapshot.fusion_groups.end(),
              [](const FusionGroupSnapshot& a, const FusionGroupSnapshot& b) {
                return a.group.group_id < b.group.group_id;
              });
    snapshot.fused_queries = CollectFusedQueries(engine.registry_);
    return snapshot;
  }

  static Status Restore(ShardedStreamEngine& engine,
                        const EngineSnapshot& snapshot) {
    engine.ticks_ = snapshot.ticks;
    for (auto& shard : engine.shards_) {
      shard->server_.RestoreClock(snapshot.ticks);
    }

    for (const SourceSnapshot& source : snapshot.sources) {
      DKF_RETURN_IF_ERROR(
          engine.RegisterSource(source.source_id, source.model));
      StreamShard& shard = engine.OwningShard(source.source_id);
      DKF_RETURN_IF_ERROR(
          shard.sources_.at(source.source_id)->ImportCheckpoint(source.node));
      DKF_RETURN_IF_ERROR(
          shard.server_.RestoreLink(source.source_id, source.link));
      shard.channel_.ImportSourceCheckpoint(source.source_id, source.channel);
    }
    // Fusion groups: the whole group (posterior plus every member's
    // mirror and channel lane) lands on the shard its group id pins it
    // to under the *target* layout, before the channels finalize.
    // The decoder reads one channel lane per member, so the two lists
    // are parallel.
    for (const FusionGroupSnapshot& entry : snapshot.fusion_groups) {
      const int group_id = entry.group.group_id;
      const int shard_index = engine.ShardIndexFor(group_id);
      StreamShard& shard = *engine.shards_[static_cast<size_t>(shard_index)];
      DKF_RETURN_IF_ERROR(shard.fusion_.ImportGroup(entry.group));
      ++shard.topology_;
      engine.fusion_groups_[group_id] = shard_index;
      for (size_t m = 0; m < entry.group.members.size(); ++m) {
        const int member_id = entry.group.members[m].source_id;
        engine.fusion_members_[member_id] = group_id;
        shard.channel_.ImportSourceCheckpoint(member_id,
                                              entry.member_channels[m]);
      }
    }
    for (auto& shard : engine.shards_) {
      // Last completed tick on every shard (groupless shards included —
      // their clocks advance unconditionally), so the next
      // BeginTick(ticks) accounts for tick ticks-1 like the
      // uninterrupted run's.
      shard->fusion_.RestoreClock(snapshot.ticks - 1);
      shard->channel_.FinalizeRestore();
    }
    // The snapshot's fleet-wide aggregates land on shard 0; only merged
    // views are part of the determinism contract (docs/checkpoint.md).
    engine.shards_[0]->server_.RestoreFaultStats(snapshot.server_faults);
    engine.shards_[0]->control_messages_ = snapshot.control_messages;

    for (const ContinuousQuery& query : snapshot.queries) {
      DKF_RETURN_IF_ERROR(engine.registry_.AddQuery(query));
    }
    for (const FusedQuery& query : snapshot.fused_queries) {
      DKF_RETURN_IF_ERROR(engine.registry_.AddFusedQuery(query));
    }
    for (const AggregateSnapshot& aggregate : snapshot.aggregates) {
      ShardedStreamEngine::AggregateBinding binding;
      binding.source_ids = aggregate.source_ids;
      binding.synthetic_query_ids = aggregate.synthetic_query_ids;
      engine.aggregates_[aggregate.id] = std::move(binding);
    }

    if (snapshot.obs.enabled) {
      DKF_RETURN_IF_ERROR(engine.EnableTracing(snapshot.obs.options));
      const size_t num_shards = engine.shards_.size();
      // Fan the canonical trace back onto the target layout. The events
      // are stably ordered by (step, source_id), so each shard's
      // subsequence preserves the original relative order of its own
      // events — which is exactly what makes the re-merged trace
      // bit-identical to the uninterrupted run's.
      std::vector<std::vector<TraceEvent>> buckets(num_shards);
      for (const TraceEvent& event : snapshot.obs.events) {
        buckets[static_cast<size_t>(engine.ShardIndexFor(event.source_id))]
            .push_back(event);
      }
      std::array<int64_t, kNumTraceEventKinds> represented{};
      std::vector<std::array<int64_t, kNumTraceEventKinds>> shard_counts;
      shard_counts.reserve(num_shards);
      for (size_t s = 0; s < num_shards; ++s) {
        shard_counts.push_back(CountKinds(buckets[s]));
        for (int k = 0; k < kNumTraceEventKinds; ++k) {
          represented[static_cast<size_t>(k)] +=
              shard_counts[s][static_cast<size_t>(k)];
        }
      }
      // Totals beyond the retained events (the ring wrapped before the
      // snapshot) cannot be attributed to a shard; credit shard 0 so the
      // merged counters still sum to the snapshot's exact totals.
      for (int k = 0; k < kNumTraceEventKinds; ++k) {
        shard_counts[0][static_cast<size_t>(k)] +=
            snapshot.obs.kind_counts[static_cast<size_t>(k)] -
            represented[static_cast<size_t>(k)];
      }
      const bool had_in_flight_gauge =
          snapshot.obs.gauges.contains(kInFlightGauge);
      for (size_t s = 0; s < num_shards; ++s) {
        std::map<std::string, double> gauges;
        if (s == 0) {
          gauges = snapshot.obs.gauges;
          gauges.erase(kInFlightGauge);
        }
        if (had_in_flight_gauge) {
          gauges[kInFlightGauge] = static_cast<double>(
              engine.shards_[s]->channel_.in_flight());
        }
        engine.sinks_[s]->RestoreForCheckpoint(
            buckets[s], shard_counts[s],
            s == 0 ? snapshot.obs.dropped : 0, gauges);
      }
    }

    // Serving front-end: registrations land on the engine that owns
    // them under the target layout (aggregate subscriptions at the
    // engine level, the rest on the shard owning their source), with
    // their saved delivery state — no fresh initial notifications.
    for (const ServeSubscriptionSnapshot& sub :
         snapshot.serve.subscriptions) {
      SubscriptionState state;
      state.spec = sub.spec;
      state.inside = sub.inside;
      state.fired = sub.fired;
      if (sub.spec.kind == SubscriptionKind::kAggregate) {
        auto it = engine.aggregates_.find(sub.spec.aggregate_id);
        if (it == engine.aggregates_.end()) {
          return Status::InvalidArgument(StrFormat(
              "subscription %lld targets aggregate %d, which the snapshot "
              "does not register",
              static_cast<long long>(sub.spec.id), sub.spec.aggregate_id));
        }
        DKF_RETURN_IF_ERROR(engine.aggregate_serve_.ImportSubscription(
            state, it->second.source_ids));
      } else if (sub.spec.kind == SubscriptionKind::kFused) {
        auto it = engine.fusion_groups_.find(sub.spec.group_id);
        if (it == engine.fusion_groups_.end()) {
          return Status::InvalidArgument(StrFormat(
              "subscription %lld targets fusion group %d, which the "
              "snapshot does not register",
              static_cast<long long>(sub.spec.id), sub.spec.group_id));
        }
        DKF_RETURN_IF_ERROR(engine.shards_[static_cast<size_t>(it->second)]
                                ->serve_.ImportSubscription(state));
      } else {
        if (!engine.HasSource(sub.spec.source_id)) {
          return Status::InvalidArgument(StrFormat(
              "subscription %lld targets source %d, which the snapshot "
              "does not register",
              static_cast<long long>(sub.spec.id), sub.spec.source_id));
        }
        DKF_RETURN_IF_ERROR(engine.OwningShard(sub.spec.source_id)
                                .serve_.ImportSubscription(state));
      }
    }
    // Fan the canonical undrained buffer back by notification key:
    // negative keys are engine-level aggregate notifications, the rest
    // go to the shard owning the source. Each engine's subsequence
    // preserves canonical order, so a later DrainNotifications
    // re-merges bit-identically to the uninterrupted run's stream.
    const size_t serve_shards = engine.shards_.size();
    std::vector<std::vector<NotificationBatch>> shard_pending(serve_shards);
    std::vector<NotificationBatch> aggregate_pending;
    for (const NotificationBatch& batch : snapshot.serve.pending) {
      std::vector<std::vector<Notification>> per_shard(serve_shards);
      std::vector<Notification> engine_level;
      for (const Notification& notification : batch.notifications) {
        // Fused keys are negative, so they must peel off before the
        // negative-means-aggregate test: they go to the shard their
        // group id pins them to, not to the engine level.
        if (IsFusedSourceKey(notification.source_id)) {
          per_shard[static_cast<size_t>(engine.ShardIndexFor(
                        GroupIdFromFusedKey(notification.source_id)))]
              .push_back(notification);
        } else if (notification.source_id < 0) {
          engine_level.push_back(notification);
        } else {
          per_shard[static_cast<size_t>(
                        engine.ShardIndexFor(notification.source_id))]
              .push_back(notification);
        }
      }
      for (size_t s = 0; s < serve_shards; ++s) {
        if (per_shard[s].empty()) continue;
        NotificationBatch shard_batch;
        shard_batch.step = batch.step;
        shard_batch.notifications = std::move(per_shard[s]);
        shard_pending[s].push_back(std::move(shard_batch));
      }
      if (!engine_level.empty()) {
        NotificationBatch aggregate_batch;
        aggregate_batch.step = batch.step;
        aggregate_batch.notifications = std::move(engine_level);
        aggregate_pending.push_back(std::move(aggregate_batch));
      }
    }
    for (size_t s = 0; s < serve_shards; ++s) {
      engine.shards_[s]->serve_.RestorePending(
          std::move(shard_pending[s]), snapshot.serve.drained_through_step);
    }
    engine.aggregate_serve_.RestorePending(
        std::move(aggregate_pending), snapshot.serve.drained_through_step);
    // The fleet-wide lifetime counters land on shard 0, like the server
    // fault stats: only the merged view is part of the contract.
    engine.shards_[0]->serve_.RestoreStats(ServeCounters(snapshot.serve));

    // Governor controller state, moved verbatim. The epoch cadence is
    // derived from the tick count restored above, so the next epoch
    // fires exactly where the uninterrupted run's would have.
    if (snapshot.governor.enabled) {
      if (engine.governor_ == nullptr) {
        return Status::InvalidArgument(
            "snapshot has the delta governor enabled but the target engine "
            "was built without one");
      }
      std::map<int, DeltaGovernor::SourceState> governor_states;
      for (const GovernorSourceSnapshot& entry : snapshot.governor.states) {
        governor_states[entry.source_id] = entry.state;
      }
      engine.governor_->ImportState(snapshot.governor.epochs,
                                    std::move(governor_states));
    }
    // The serve value caches are pure functions of engine state, so they
    // are re-primed from the restored filters instead of serialized.
    for (auto& shard : engine.shards_) {
      DKF_RETURN_IF_ERROR(shard->RefreshServeCaches());
    }
    DKF_RETURN_IF_ERROR(engine.RefreshServeCaches());
    return Status::OK();
  }
};

Status ShardedStreamEngine::Save(const std::string& path) const {
  DKF_ASSIGN_OR_RETURN(EngineSnapshot snapshot,
                       CheckpointAccess::Capture(*this));
  return SaveSnapshotFile(snapshot, path);
}

Result<std::unique_ptr<ShardedStreamEngine>> ShardedStreamEngine::Restore(
    const std::string& path, int num_shards, bool batched_fleet) {
  DKF_ASSIGN_OR_RETURN(EngineSnapshot snapshot, LoadSnapshotFile(path));
  if (!snapshot.channel.per_source_rng &&
      (snapshot.channel.drop_probability > 0.0 ||
       snapshot.channel.fault.any())) {
    return Status::InvalidArgument(
        "snapshot uses a shared channel RNG stream with faults enabled; "
        "the engine draws per-source fault streams, so a restore would "
        "change the fault sequence");
  }
  // Channel and fault fields decode unchecked; an inverted delay range,
  // say, would reach Rng::UniformInt on the first faulty send.
  DKF_RETURN_IF_ERROR(ValidateChannelOptions(snapshot.channel));
  ShardedStreamEngineOptions options;
  options.num_shards = num_shards > 0 ? num_shards : snapshot.num_shards;
  if (options.num_shards > kMaxShards) {
    return Status::InvalidArgument(
        StrFormat("restore asks for %d shards; at most %d are supported",
                  options.num_shards, kMaxShards));
  }
  options.energy = snapshot.energy;
  options.channel = snapshot.channel;
  options.default_delta = snapshot.default_delta;
  options.protocol = snapshot.protocol;
  options.serve = snapshot.serve.options;
  options.governor = snapshot.governor.options;
  options.governor.enabled = snapshot.governor.enabled;
  // Snapshots are engine-agnostic: restoring onto the batched fleet
  // engine reconstructs every source on the per-source path (spilled)
  // and lets eligible ones re-enter their lanes after the next tick.
  options.batched_fleet = batched_fleet;
  auto engine = std::make_unique<ShardedStreamEngine>(options);
  DKF_RETURN_IF_ERROR(CheckpointAccess::Restore(*engine, snapshot));
  return engine;
}

}  // namespace dkf
