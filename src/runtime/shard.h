#ifndef DKF_RUNTIME_SHARD_H_
#define DKF_RUNTIME_SHARD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/result.h"
#include "dsms/channel.h"
#include "dsms/energy_model.h"
#include "dsms/protocol.h"
#include "dsms/server_node.h"
#include "dsms/source_node.h"
#include "dsms/tick_step.h"
#include "fleet/fleet_engine.h"
#include "fusion/fusion_engine.h"
#include "metrics/fault_stats.h"
#include "models/state_model.h"
#include "obs/trace_sink.h"
#include "query/registry.h"
#include "serve/subscription.h"
#include "serve/subscription_engine.h"

namespace dkf {

class CheckpointAccess;  // src/checkpoint/: snapshot save/restore plumbing

/// A ReadingBatch's (id, position) pairs sorted by id, position breaking
/// ties — what a shard resolves its slice of the batch against.
using ReadingIndex = std::vector<std::pair<int, uint32_t>>;
ReadingIndex IndexReadings(const std::vector<int>& ids);

/// One shard's share of a ReadingBatch layout (its id array), resolved
/// once per layout: the batch position of every source the shard owns,
/// in ascending id order, and of every fusion member, in the fusion
/// engine's tick order. `topology` is the shard topology it was
/// resolved at; a slice from an older topology is stale.
struct ShardReadingSlice {
  std::vector<uint32_t> sources;
  std::vector<uint32_t> members;
  uint64_t topology = 0;
};

/// What one source has spent so far: readings taken, updates sent,
/// bytes put on the uplink (lost frames included), and sensor energy.
struct SourceUsage {
  int64_t readings = 0;
  int64_t updates_sent = 0;
  int64_t uplink_bytes = 0;
  double energy = 0.0;
};

/// One partition of a ShardedStreamEngine's fleet. A shard owns the
/// complete dual-link state for its sources — the source-side
/// SourceNodes (mirror KF_m, optional KF_c), the server-side predictors
/// (its own ServerNode), and its own uplink Channel — so the per-tick
/// hot path touches nothing shared with other shards. All cross-shard
/// coordination (query registry, aggregate bindings, stats merging)
/// lives at the engine.
///
/// Thread contract: ProcessTick is called from a worker thread, one
/// call per shard per engine tick, never concurrently with any other
/// method of the same shard. Every other method runs on the engine's
/// driver thread between ticks.
class StreamShard {
 public:
  /// The channel draws per-source fault streams, so drop sequences do
  /// not depend on which shard a source landed in.
  StreamShard(const ChannelOptions& channel, EnergyModelOptions energy,
              double default_delta,
              const ProtocolOptions& protocol = ProtocolOptions(),
              const ServeOptions& serve = ServeOptions());

  /// Switches this shard to the batched fleet engine (src/fleet/,
  /// docs/fleet.md): steady-state sources are folded into SoA lanes and
  /// ticked by flat kernels, bit-identical to the per-source path. Must
  /// be called before any AddSource. The batched path's send order
  /// differs from the per-source ascending sweep, which the channel's
  /// per-source fault streams make unobservable.
  Status EnableFleet();

  bool fleet_enabled() const { return fleet_ != nullptr; }

  /// Sources currently folded into batch lanes (0 without EnableFleet).
  size_t fleet_resident_count() const {
    return fleet_ ? fleet_->resident_count() : 0;
  }

  /// True while `source_id` is folded into a batch lane.
  bool fleet_resident(int source_id) const {
    return fleet_ != nullptr && fleet_->resident(source_id);
  }

  /// Installs a source and its dual filters on this shard.
  Status AddSource(int source_id, const StateModel& model);

  /// Registers a fusion group on this shard (the engine pins a group to
  /// the shard ShardIndexFor(group_id) names, so the whole group ticks
  /// on one worker). Engine-wide id-disjointness is validated by the
  /// engine; this shard rejects member ids colliding with its own
  /// sources.
  Status RegisterFusionGroup(const FusionGroupConfig& config);

  /// Adds / removes a member of a live group between ticks. Both charge
  /// one control message (admission handoff / dismissal).
  Status AddFusionMember(int group_id, int member_id);
  Status RemoveFusionMember(int group_id, int member_id);

  /// Re-derives a group's event trigger from `registry` (tightest fused
  /// precision, or the registration delta when no query binds) and
  /// installs it, charging one control message per member on change.
  Status ReconfigureFusionGroup(int group_id, const QueryRegistry& registry);

  Result<Vector> AnswerFused(int group_id) const;
  Result<FusionEngine::ConfidentAnswer> AnswerFusedWithConfidence(
      int group_id) const;
  Result<bool> fused_degraded(int group_id) const;

  /// The extended mirror-consistency contract over this shard's groups.
  Status VerifyFusedConsistency() const {
    return fusion_.VerifyGroupConsistency();
  }

  /// Fusion-subsystem counters merged over this shard's groups.
  FusionStats fusion_stats() const { return fusion_.stats(); }

  /// Read access to this shard's fusion subsystem.
  const FusionEngine& fusion() const { return fusion_; }

  size_t num_fusion_members() const { return fusion_.num_members(); }

  /// Re-derives the source's effective delta/smoothing from `registry`
  /// and pushes it to the node (a delta alone to a resident lane in
  /// place), counting a control message on change.
  Status Reconfigure(int source_id, const QueryRegistry& registry);

  /// Installs new precision widths on many of this shard's sources in
  /// one sweep — the governor's per-epoch fan-out. A batch-resident
  /// source takes its width on its lane, without a spill; entries whose
  /// delta already matches are skipped entirely (no control message).
  Status ReconfigureSources(const std::vector<std::pair<int, double>>& deltas);

  /// Counts every change to the shard's set of sources and fusion
  /// members (AddSource, fusion group and member changes).
  uint64_t topology() const { return topology_; }

  /// Resolves this shard's slice of a batch layout from its sorted index.
  /// InvalidArgument naming the first owned source (ascending id), then
  /// fusion member (tick order), that has no reading. Ids owned elsewhere
  /// are ignored; a repeated id resolves to its first position.
  Status ResolveSlice(const ReadingIndex& index,
                      ShardReadingSlice* slice) const;

  /// Runs one protocol tick over this shard's sources and fusion members,
  /// reading `batch` at the positions `slice` resolved for its layout
  /// (FailedPrecondition when the slice is stale).
  Status ProcessTick(int64_t tick, const ReadingBatch& batch,
                     const ShardReadingSlice& slice);

  /// The standalone form: resolves `batch`'s layout (cached until its ids
  /// or the topology change) and ticks. Entries for other shards' sources
  /// are ignored.
  Status ProcessTick(int64_t tick, const ReadingBatch& batch);

  Result<Vector> Answer(int source_id) const;
  Result<ServerNode::ConfidentAnswer> AnswerWithConfidence(
      int source_id) const;

  /// Component 0 of Answer(); with `variance`, also
  /// AnswerWithConfidence's covariance(0, 0) (0 without one) — see
  /// ServerNode::AnswerScalar.
  Result<double> AnswerScalar(int source_id, double* variance) const;

  /// Mirror-consistency invariant over this shard's links.
  Status VerifyMirrorConsistency() const;

  /// The fault-tolerant variant: every source NOT pending resync must
  /// have a mirror bit-identical to its server predictor.
  Status VerifyLinkConsistency() const;

  /// Whether a source's answers are currently served degraded.
  Result<bool> answer_degraded(int source_id) const;

  /// Whether a source is in the pending-resync state.
  Result<bool> resync_pending(int source_id) const;

  /// This shard's merged protocol fault counters (server ingress +
  /// per-source divergence).
  ProtocolFaultStats fault_stats() const;

  Result<double> source_delta(int source_id) const;
  /// Read from the node, or from the lane's columns while resident.
  Result<SourceUsage> source_usage(int source_id) const;

  /// Measurement width of a source's stream (for aggregate-eligibility
  /// checks at the engine).
  Result<size_t> source_dim(int source_id) const;

  /// The model recipe a source was registered with (what a checkpoint
  /// re-creates it from): its node's, or a batch-resident source's
  /// nominal group's.
  Result<const StateModel*> source_model(int source_id) const;

  const ChannelStats& uplink_traffic() const { return channel_.total(); }

  /// Per-source uplink counters from this shard's channel (zeros for an
  /// id that never sent).
  const ChannelStats& source_uplink(int source_id) const {
    return channel_.for_source(source_id);
  }

  /// The mirror-side noise servo for a source, or nullptr for an unknown
  /// id. Valid for fleet-resident sources too: the lane's node record
  /// carries the adapter state, which only corrections (spilled path) can
  /// move.
  const NoiseAdapter* source_noise_adapter(int source_id) const;

  /// Lifetime spill and absorb-reject counts of the batch lanes (all 0
  /// without EnableFleet).
  FleetCounters fleet_counters() const {
    return fleet_ ? fleet_->counters() : FleetCounters();
  }

  /// Live SourceNodes and shared cold records (without EnableFleet, one
  /// node per source and nothing else).
  FleetFootprint fleet_footprint() const;

  int64_t control_messages() const { return control_messages_; }
  size_t num_sources() const { return sources_.size(); }

  /// Attaches a standing query against one of this shard's sources
  /// (aggregate subscriptions live at the engine). `attach_step` is the
  /// engine's current tick count.
  Status Subscribe(const Subscription& subscription, int64_t attach_step);

  /// Detaches a standing query owned by this shard.
  Status Unsubscribe(int64_t subscription_id);

  bool has_subscription(int64_t subscription_id) const {
    return serve_.has_subscription(subscription_id);
  }
  size_t num_subscriptions() const { return serve_.num_subscriptions(); }

  /// This shard's undrained notification batches (already in canonical
  /// per-shard order; the engine merges across shards).
  std::vector<NotificationBatch> DrainNotifications() {
    return serve_.Drain();
  }

  /// Whether DrainNotifications would return any batch.
  bool has_pending_notifications() const {
    return !serve_.pending().empty();
  }

  ServeStats serve_stats() const { return serve_.stats(); }

  /// Per-source snapshot state, routed so checkpointing works with the
  /// fleet engine on: a batch-resident source's state is synthesized
  /// from its lane (bit-identical to what the per-source objects would
  /// export); everyone else exports from the real objects.
  Result<SourceNode::CheckpointState> ExportSourceState(int source_id) const;
  Result<ServerNode::LinkSnapshot> ExportLinkState(int source_id) const;

  /// Wires this shard's channel, server, and source nodes (present and
  /// future) into an observability sink. The engine hands each shard its
  /// own sink so emission stays lock-free under the thread contract;
  /// traces are merged deterministically afterwards. Pass nullptr to
  /// unwire.
  void set_trace_sink(TraceSink* sink);

 private:
  friend class CheckpointAccess;
  /// The serving layer's view of this shard (shard.cc).
  class ServeAnswers;

  /// Re-primes the serve value caches after a restore.
  Status RefreshServeCaches();

  /// Sets a registered source's delta on its node, or on its lane while
  /// it is batch-resident; false (nothing touched) when it already has
  /// that delta.
  Result<bool> InstallDelta(int source_id, double delta);

  /// The node of a registered source, or nullptr for a batch-resident
  /// one (which has none), whose lane facts and address then land in
  /// `*resident`: one `sources_` lookup, plus one fleet lookup for a
  /// resident source.
  Result<const SourceNode*> FindNode(
      int source_id,
      std::optional<FleetEngine::ResidentSource>* resident) const;

  /// The lane facts and address of a batch-resident source, from one
  /// fleet lookup; nullopt for every other id, which the server then
  /// answers or refuses. The answers start here rather than at FindNode,
  /// so a per-source answer pays only the server's own lookup.
  std::optional<FleetEngine::ResidentSource> FindLane(int source_id) const;

  ServerNode server_;
  Channel channel_;
  EnergyModelOptions energy_;
  double default_delta_;
  ProtocolOptions protocol_;
  /// Every source's node; null while the source is batch-resident (the
  /// fleet engine frees and rebuilds it through the map slot).
  std::map<int, std::unique_ptr<SourceNode>> sources_;
  uint64_t topology_ = 0;
  /// The per-source tick's dense inputs: `sources_`'s nodes in id order
  /// (as of `nodes_topology_`), and this tick's node/reading pairs and
  /// member readings.
  std::vector<SourceNode*> nodes_;
  uint64_t nodes_topology_ = UINT64_MAX;
  std::vector<SourceStep> steps_;
  std::vector<const Vector*> member_readings_;
  /// The standalone ProcessTick's cached layout and slice.
  std::vector<int> layout_ids_;
  ShardReadingSlice layout_slice_;
  /// This shard's slice of the serving front-end: subscriptions against
  /// owned sources, evaluated at the tail of ProcessTick (still on the
  /// worker thread — the per-shard index is what scales the fan-out).
  SubscriptionEngine serve_;
  /// This shard's fusion groups (src/fusion/). Fused uplink traffic
  /// (message.group_id >= 0) is routed here by the channel sink instead
  /// of the per-source server node. Fusion members never enter the
  /// batched fleet: they are not SourceNodes.
  FusionEngine fusion_;
  /// Batched steady-state engine; null unless EnableFleet was called.
  std::unique_ptr<FleetEngine> fleet_;
  int64_t control_messages_ = 0;
  /// Per-shard observability sink (owned by the engine; null while
  /// tracing is off).
  TraceSink* obs_sink_ = nullptr;
};

}  // namespace dkf

#endif  // DKF_RUNTIME_SHARD_H_
