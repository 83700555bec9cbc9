#ifndef DKF_CHECKPOINT_SNAPSHOT_H_
#define DKF_CHECKPOINT_SNAPSHOT_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dsms/channel.h"
#include "dsms/energy_model.h"
#include "dsms/protocol.h"
#include "dsms/server_node.h"
#include "dsms/source_node.h"
#include "fusion/fusion_engine.h"
#include "governor/delta_governor.h"
#include "metrics/fault_stats.h"
#include "models/state_model.h"
#include "obs/trace.h"
#include "obs/trace_sink.h"
#include "query/query.h"
#include "serve/subscription.h"
#include "serve/subscription_engine.h"

namespace dkf {

/// Everything the checkpoint keeps for one registered source: the model
/// recipe it was created from plus the three per-link state bundles —
/// the source node (KF_m, optional KF_c, the divergence state machine),
/// the server link (KF_s, ingress bookkeeping), and the channel lane
/// (fault RNG, Gilbert–Elliott chain, in-flight messages, deferred
/// ACKs). Keyed by source id, never by shard: the snapshot is
/// shard-layout-free, which is what makes elastic re-sharding possible
/// (docs/checkpoint.md).
struct SourceSnapshot {
  int source_id = 0;
  StateModel model;
  SourceNode::CheckpointState node;
  ServerNode::LinkSnapshot link;
  Channel::SourceCheckpoint channel;
};

/// One aggregate query binding. The per-shard member grouping is NOT
/// stored — it is recomputed on restore for the target shard count.
struct AggregateSnapshot {
  int id = 0;
  std::vector<int> source_ids;
  std::vector<int> synthetic_query_ids;
};

/// Observability state: the retained trace (in canonical merged order),
/// the exact per-kind totals, and the sampled gauges. Timing histograms
/// are excluded — they are nondeterministic by design.
struct ObsSnapshot {
  bool enabled = false;
  ObsOptions options;
  /// Retained events, stably sorted by (step, source_id) — the same
  /// canonical order MergeTraces produces, so the events fan back onto
  /// any shard layout without disturbing the merged trace.
  std::vector<TraceEvent> events;
  /// Exact per-kind totals (exact even where the ring wrapped).
  std::array<int64_t, kNumTraceEventKinds> kind_counts{};
  int64_t dropped = 0;
  std::map<std::string, double> gauges;
};

/// One standing subscription plus its delivery state — everything the
/// SubscriptionEngine needs to re-attach it with ImportSubscription:
/// the band/range membership and the uncertainty latch travel with the
/// spec so the restored engine emits no fresh initial notification and
/// re-derives nothing.
struct ServeSubscriptionSnapshot {
  Subscription spec;
  bool inside = false;
  bool fired = false;
};

/// Serving front-end state (src/serve/): the standing registrations,
/// the undrained notification buffer, the delivery cursor, and the
/// lifetime counters. Shard-layout-free like the rest of the snapshot:
/// subscriptions and buffered notifications fan back onto the target
/// layout by source ownership on restore (docs/checkpoint.md).
struct ServeSnapshot {
  ServeOptions options;
  /// Every registration, strictly ascending subscription id.
  std::vector<ServeSubscriptionSnapshot> subscriptions;
  /// Undrained batches in canonical merged order: coalesced per step
  /// and sorted by (step, source_id, subscription_id) — exactly the
  /// order DrainNotifications hands out on any layout.
  std::vector<NotificationBatch> pending;
  int64_t drained_through_step = -1;
  // Lifetime counters (ServeStats minus the derived registration
  // count), fleet-wide. Restored into one engine; only the merged view
  // is part of the determinism contract.
  int64_t notifications = 0;
  int64_t dropped = 0;
  int64_t touched = 0;
  int64_t affected = 0;
};

/// One fusion group and its members (src/fusion/): the engine-side
/// running state (posterior, version clock, member mirrors and protocol
/// cursors) plus each member's channel lane — members share the
/// per-source uplink fault-stream namespace with plain sources, so
/// their lanes travel exactly like SourceSnapshot's.
/// Keyed by group id; on a sharded restore the whole group lands on
/// the shard ShardIndexFor(group_id) names.
struct FusionGroupSnapshot {
  FusionEngine::GroupState group;
  /// One lane per member, parallel to group.members (ascending id).
  std::vector<Channel::SourceCheckpoint> member_channels;
};

/// One source's governor controller state, keyed by source id (layout-
/// free like everything else in the snapshot).
struct GovernorSourceSnapshot {
  int source_id = 0;
  DeltaGovernor::SourceState state;
};

/// Delta-governor state (src/governor/): the configured control law
/// plus every source's EWMA rates and sensitivity fit, so a restore
/// mid-epoch resumes the exact same delta schedule. The epoch cadence
/// itself is stateless (derived from the tick count), so no phase needs
/// storing.
struct GovernorSnapshot {
  bool enabled = false;
  GovernorOptions options;
  int64_t epochs = 0;
  /// Controller state, strictly ascending source id.
  std::vector<GovernorSourceSnapshot> states;
};

/// The complete persisted state of a ShardedStreamEngine between two
/// ticks. A snapshot restores at any shard count, and the restored run
/// continues bit-identically: same answers, same fault sequence, same
/// merged trace (docs/checkpoint.md).
struct EngineSnapshot {
  // ---- configuration (reconstructs the constructor options) ---------
  EnergyModelOptions energy;
  ChannelOptions channel;
  double default_delta = 1e6;
  ProtocolOptions protocol;
  /// Shard count at save time — the default for a restore that does not
  /// override it.
  int num_shards = 1;

  // ---- progress -----------------------------------------------------
  int64_t ticks = 0;
  int64_t control_messages = 0;

  /// Per-source state, ascending source id.
  std::vector<SourceSnapshot> sources;

  /// Server-side ingress counters, aggregated fleet-wide. Restored into
  /// one server (shard 0) — only the merged view is part of the
  /// determinism contract.
  ProtocolFaultStats server_faults;

  /// Every registered query verbatim, including the synthetic
  /// per-source members of aggregates. Restored directly into the
  /// registry — no reconfiguration runs, because the node state in
  /// `sources` is already exact.
  std::vector<ContinuousQuery> queries;
  std::vector<AggregateSnapshot> aggregates;

  ObsSnapshot obs;

  /// Serving front-end.
  ServeSnapshot serve;

  /// Delta governor.
  GovernorSnapshot governor;

  /// Fusion groups and their standing fused queries. Groups ascending by
  /// group id, queries ascending by query id.
  std::vector<FusionGroupSnapshot> fusion_groups;
  std::vector<FusedQuery> fused_queries;
};

}  // namespace dkf

#endif  // DKF_CHECKPOINT_SNAPSHOT_H_
