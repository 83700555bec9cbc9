#include "runtime/shard.h"

#include <algorithm>
#include <chrono>

#include "common/string_util.h"

namespace dkf {

/// The serving layer's view of one shard: component 0 of the shard's
/// server-side answers plus the projected variance. Aggregates span
/// shards and are served at the engine, never here.
class StreamShard::ServeAnswers final : public ServeAnswerSource {
 public:
  explicit ServeAnswers(const StreamShard& shard) : shard_(shard) {}

  Result<double> SourceValue(int source_id, double* variance) const override {
    return shard_.AnswerScalar(source_id, variance);
  }

  Result<double> AggregateValue(int aggregate_id) const override {
    return Status::InvalidArgument(
        StrFormat("aggregate %d is not served at shard level",
                  aggregate_id));
  }

  Result<double> FusedValue(int group_id) const override {
    auto answer_or = shard_.AnswerFused(group_id);
    if (!answer_or.ok()) return answer_or.status();
    return answer_or.value()[0];
  }

 private:
  const StreamShard& shard_;
};

ReadingIndex IndexReadings(const std::vector<int>& ids) {
  ReadingIndex index(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    index[i] = {ids[i], static_cast<uint32_t>(i)};
  }
  std::sort(index.begin(), index.end());
  return index;
}

StreamShard::StreamShard(const ChannelOptions& channel,
                         EnergyModelOptions energy, double default_delta,
                         const ProtocolOptions& protocol,
                         const ServeOptions& serve)
    : server_(protocol),
      channel_([this](const Message& message) {
        // Fused traffic is addressed by group; everything else is a
        // per-source dual link, whose server end is the fleet lane while
        // the source is batch-resident.
        if (message.group_id >= 0) return fusion_.OnMessage(message);
        if (fleet_ != nullptr && fleet_->resident(message.source_id)) {
          return fleet_->OnMessage(message);
        }
        return server_.OnMessage(message);
      }, channel),
      energy_(energy),
      default_delta_(default_delta),
      protocol_(protocol),
      serve_(serve),
      fusion_(protocol, channel.fault) {}

Status StreamShard::EnableFleet() {
  if (fleet_ != nullptr) return Status::OK();
  if (!sources_.empty()) {
    return Status::FailedPrecondition(
        "EnableFleet must be called before any AddSource");
  }
  fleet_ = std::make_unique<FleetEngine>(&server_, &channel_, protocol_,
                                         energy_);
  if (obs_sink_ != nullptr) fleet_->set_trace_sink(obs_sink_);
  return Status::OK();
}

Status StreamShard::AddSource(int source_id, const StateModel& model) {
  if (sources_.contains(source_id)) {
    return Status::AlreadyExists(
        StrFormat("source %d already registered", source_id));
  }
  if (fusion_.owns_member(source_id)) {
    return Status::AlreadyExists(
        StrFormat("id %d already belongs to fusion group %d", source_id,
                  fusion_.member_group(source_id)));
  }
  DKF_RETURN_IF_ERROR(server_.RegisterSource(source_id, model));

  SourceNodeOptions node_options;
  node_options.source_id = source_id;
  node_options.model = model;
  node_options.delta = default_delta_;
  node_options.energy = energy_;
  node_options.protocol = protocol_;
  auto node_or = SourceNode::Create(node_options);
  if (!node_or.ok()) {
    // Keep server and source sets consistent on failure.
    (void)server_.UnregisterSource(source_id);
    return node_or.status();
  }
  sources_[source_id] =
      std::make_unique<SourceNode>(std::move(node_or).value());
  ++topology_;
  if (obs_sink_ != nullptr) sources_[source_id]->set_trace_sink(obs_sink_);
  if (fleet_ != nullptr) {
    Status tracked = fleet_->Track(source_id, model, &sources_[source_id]);
    if (!tracked.ok()) {
      sources_.erase(source_id);
      (void)server_.UnregisterSource(source_id);
      return tracked;
    }
  }
  return Status::OK();
}

void StreamShard::set_trace_sink(TraceSink* sink) {
  obs_sink_ = sink;
  channel_.set_trace_sink(sink);
  server_.set_trace_sink(sink);
  fusion_.set_trace_sink(sink);
  serve_.set_trace_sink(sink);
  if (fleet_ != nullptr) fleet_->set_trace_sink(sink);
  // Resident sources have no node; a spill wires the rebuilt one.
  for (auto& [id, node] : sources_) {
    if (node != nullptr) node->set_trace_sink(sink);
  }
}

Status StreamShard::Subscribe(const Subscription& subscription,
                              int64_t attach_step) {
  return serve_.Subscribe(subscription, attach_step, ServeAnswers(*this));
}

Status StreamShard::RefreshServeCaches() {
  return serve_.RefreshCaches(ServeAnswers(*this));
}

Status StreamShard::Unsubscribe(int64_t subscription_id) {
  return serve_.Unsubscribe(subscription_id);
}

Status StreamShard::Reconfigure(int source_id,
                                const QueryRegistry& registry) {
  auto it = sources_.find(source_id);
  if (it == sources_.end()) {
    return Status::NotFound(StrFormat("source %d not on shard", source_id));
  }
  const EffectiveConfig config =
      ResolveEffectiveConfig(registry, default_delta_, source_id);
  // Only touch (and thereby restart) the KF_c smoother when the factor
  // actually changed. KF_c lives on the SourceNode, so a batch-resident
  // source — which never has smoothing on: absorption requires it off —
  // spills (rebuilding its node) before such a change lands and re-enters
  // the batch at the end of the next tick if still eligible; a delta-only
  // change lands on its lane in place.
  const std::optional<double> installed =
      it->second != nullptr ? it->second->smoothing_factor() : std::nullopt;
  const bool smoothing_changed = installed != config.smoothing;
  if (smoothing_changed && fleet_ != nullptr) {
    DKF_RETURN_IF_ERROR(fleet_->SpillForReconfigure(source_id));
  }
  DKF_ASSIGN_OR_RETURN(const bool delta_changed,
                       InstallDelta(source_id, config.delta));
  if (smoothing_changed) {
    DKF_RETURN_IF_ERROR(it->second->set_smoothing(config.smoothing));
  }
  if (delta_changed || smoothing_changed) ++control_messages_;
  return Status::OK();
}

Result<bool> StreamShard::InstallDelta(int source_id, double delta) {
  DKF_ASSIGN_OR_RETURN(const double current, source_delta(source_id));
  if (current == delta) return false;
  SourceNode* node = sources_.at(source_id).get();
  // Delta is a lane column: a batch-resident source takes it in place.
  DKF_RETURN_IF_ERROR(node != nullptr ? node->set_delta(delta)
                                      : fleet_->SetDelta(source_id, delta));
  return true;
}

Status StreamShard::RegisterFusionGroup(const FusionGroupConfig& config) {
  for (int member_id : config.member_ids) {
    if (sources_.contains(member_id)) {
      return Status::AlreadyExists(
          StrFormat("fusion member id %d is a registered source", member_id));
    }
  }
  DKF_RETURN_IF_ERROR(fusion_.RegisterGroup(config));
  ++topology_;
  if (obs_sink_ != nullptr) fusion_.set_trace_sink(obs_sink_);
  return Status::OK();
}

Status StreamShard::AddFusionMember(int group_id, int member_id) {
  if (sources_.contains(member_id)) {
    return Status::AlreadyExists(
        StrFormat("fusion member id %d is a registered source", member_id));
  }
  DKF_RETURN_IF_ERROR(fusion_.AddMember(group_id, member_id));
  ++topology_;
  if (obs_sink_ != nullptr) fusion_.set_trace_sink(obs_sink_);
  // The admission handoff: the newcomer's mirror is handed the current
  // posterior over the out-of-band downlink.
  ++control_messages_;
  return Status::OK();
}

Status StreamShard::RemoveFusionMember(int group_id, int member_id) {
  DKF_RETURN_IF_ERROR(fusion_.RemoveMember(group_id, member_id));
  ++topology_;
  ++control_messages_;  // the dismissal
  return Status::OK();
}

Status StreamShard::ReconfigureFusionGroup(int group_id,
                                           const QueryRegistry& registry) {
  double effective;
  if (registry.FusedQueriesForGroup(group_id).empty()) {
    auto base_or = fusion_.group_base_delta(group_id);
    if (!base_or.ok()) return base_or.status();
    effective = base_or.value();
  } else {
    auto delta_or = registry.EffectiveFusedDelta(group_id);
    if (!delta_or.ok()) return delta_or.status();
    effective = delta_or.value();
  }
  auto changed_or = fusion_.set_group_delta(group_id, effective);
  if (!changed_or.ok()) return changed_or.status();
  if (changed_or.value()) {
    // Every member must learn the new trigger: one control message each.
    auto members_or = fusion_.group_members(group_id);
    if (!members_or.ok()) return members_or.status();
    control_messages_ += static_cast<int64_t>(members_or.value().size());
  }
  return Status::OK();
}

Result<Vector> StreamShard::AnswerFused(int group_id) const {
  return fusion_.Answer(group_id);
}

Result<FusionEngine::ConfidentAnswer> StreamShard::AnswerFusedWithConfidence(
    int group_id) const {
  return fusion_.AnswerWithConfidence(group_id);
}

Result<bool> StreamShard::fused_degraded(int group_id) const {
  return fusion_.answer_degraded(group_id);
}

Status StreamShard::ReconfigureSources(
    const std::vector<std::pair<int, double>>& deltas) {
  for (const auto& [source_id, delta] : deltas) {
    if (!sources_.contains(source_id)) {
      return Status::NotFound(StrFormat("source %d not on shard", source_id));
    }
    DKF_ASSIGN_OR_RETURN(const bool changed, InstallDelta(source_id, delta));
    if (changed) ++control_messages_;
  }
  return Status::OK();
}

Status StreamShard::ResolveSlice(const ReadingIndex& index,
                                 ShardReadingSlice* slice) const {
  auto position = [&index](int id) -> int64_t {
    auto it = std::lower_bound(index.begin(), index.end(),
                               std::make_pair(id, uint32_t{0}));
    if (it == index.end() || it->first != id) return -1;
    return it->second;
  };
  slice->sources.clear();
  slice->members.clear();
  for (const auto& [id, node] : sources_) {
    const int64_t at = position(id);
    if (at < 0) {
      return Status::InvalidArgument(
          StrFormat("missing reading for source %d", id));
    }
    slice->sources.push_back(static_cast<uint32_t>(at));
  }
  for (int member_id : fusion_.member_tick_order()) {
    const int64_t at = position(member_id);
    if (at < 0) {
      return Status::InvalidArgument(
          StrFormat("no reading for fusion member %d", member_id));
    }
    slice->members.push_back(static_cast<uint32_t>(at));
  }
  slice->topology = topology_;
  return Status::OK();
}

Status StreamShard::ProcessTick(int64_t tick, const ReadingBatch& batch) {
  if (batch.ids.size() != batch.values.size()) {
    return Status::InvalidArgument(
        StrFormat("reading batch has %zu ids but %zu values",
                  batch.ids.size(), batch.values.size()));
  }
  if (layout_slice_.topology != topology_ || batch.ids != layout_ids_) {
    // Resolved aside and kept only once whole: a refused layout leaves
    // the cached one intact.
    ShardReadingSlice slice;
    DKF_RETURN_IF_ERROR(ResolveSlice(IndexReadings(batch.ids), &slice));
    layout_slice_ = std::move(slice);
    layout_ids_ = batch.ids;
  }
  return ProcessTick(tick, batch, layout_slice_);
}

Status StreamShard::ProcessTick(int64_t tick, const ReadingBatch& batch,
                                const ShardReadingSlice& slice) {
  if (slice.topology != topology_) {
    return Status::FailedPrecondition(
        "reading slice was resolved for an older shard topology");
  }
  const bool timed = obs_sink_ != nullptr && obs_sink_->options().record_timing;
  const auto start = timed ? std::chrono::steady_clock::now()
                           : std::chrono::steady_clock::time_point();
  // Fused posteriors and mirrors predict before the channel drains its
  // in-flight queue (inside the source tick), so delayed fused
  // deliveries land on post-predict state — the same ordering
  // ServerNode::TickAll gives the per-source links. Unconditional: the
  // fusion clock must advance even while the shard has no groups.
  DKF_RETURN_IF_ERROR(fusion_.BeginTick(tick));
  if (fleet_ != nullptr) {
    DKF_RETURN_IF_ERROR(fleet_->ProcessTick(tick, batch.values, slice.sources));
  } else {
    if (nodes_topology_ != topology_) {
      nodes_.clear();
      for (const auto& [id, node] : sources_) nodes_.push_back(node.get());
      nodes_topology_ = topology_;
    }
    steps_.clear();
    for (size_t i = 0; i < nodes_.size(); ++i) {
      steps_.emplace_back(nodes_[i], &batch.values[slice.sources[i]]);
    }
    DKF_RETURN_IF_ERROR(RunSourceTick(tick, server_, steps_, channel_));
  }
  // Fusion members run after the plain sources, in ascending (group,
  // member) order — one deterministic source order per shard tick.
  if (fusion_.active()) {
    member_readings_.clear();
    for (uint32_t at : slice.members) {
      member_readings_.push_back(&batch.values[at]);
    }
    DKF_RETURN_IF_ERROR(
        fusion_.ProcessReadings(tick, member_readings_, &channel_));
  }
  // Serve this shard's subscriptions while still on the worker thread:
  // the per-shard index makes notification fan-out scale with shards
  // exactly like the protocol work does.
  DKF_RETURN_IF_ERROR(serve_.EndTick(tick, ServeAnswers(*this)));
  if (obs_sink_ != nullptr) {
    if (timed) {
      obs_sink_->RecordTickLatencyNs(std::chrono::duration<double, std::nano>(
                                         std::chrono::steady_clock::now() -
                                         start)
                                         .count());
    }
    obs_sink_->SetGauge("channel.in_flight",
                        static_cast<double>(channel_.in_flight()));
  }
  return Status::OK();
}

Result<Vector> StreamShard::Answer(int source_id) const {
  if (const auto lane = FindLane(source_id)) return fleet_->Answer(*lane);
  return server_.Answer(source_id);
}

Result<ServerNode::ConfidentAnswer> StreamShard::AnswerWithConfidence(
    int source_id) const {
  if (const auto lane = FindLane(source_id)) {
    return fleet_->AnswerWithConfidence(*lane);
  }
  return server_.AnswerWithConfidence(source_id);
}

Result<double> StreamShard::AnswerScalar(int source_id,
                                         double* variance) const {
  if (const auto lane = FindLane(source_id)) {
    return fleet_->AnswerScalar(*lane, variance);
  }
  return server_.AnswerScalar(source_id, variance);
}

Status StreamShard::VerifyLinkConsistency() const {
  for (const auto& [id, node] : sources_) {
    // A batch-resident source has no node: its one lane holds mirror ==
    // predictor bitwise by construction, and there is no separate
    // server predictor to compare against.
    if (node == nullptr) continue;
    if (node->resync_pending()) continue;
    auto predictor_or = server_.predictor(id);
    if (!predictor_or.ok()) return predictor_or.status();
    if (!node->mirror().StateEquals(*predictor_or.value())) {
      return Status::Internal(
          StrFormat("link-consistency violated for healthy source %d", id));
    }
  }
  return Status::OK();
}

Result<bool> StreamShard::answer_degraded(int source_id) const {
  if (const auto lane = FindLane(source_id)) {
    return fleet_->answer_degraded(*lane);
  }
  return server_.degraded(source_id);
}

Result<bool> StreamShard::resync_pending(int source_id) const {
  auto it = sources_.find(source_id);
  if (it == sources_.end()) {
    return Status::NotFound(StrFormat("source %d not registered", source_id));
  }
  // A resident lane is never in a resync episode (absorption requires it).
  return it->second != nullptr && it->second->resync_pending();
}

ProtocolFaultStats StreamShard::fault_stats() const {
  ProtocolFaultStats merged = server_.fault_stats();
  // Degraded ticks on batch-resident lanes are accounted by the fleet
  // engine (the server only sees the spilled sources).
  if (fleet_ != nullptr) {
    merged.degraded_ticks += fleet_->degraded_ticks();
    fleet_->MergeResidentFaults(&merged);
  }
  for (const auto& [id, node] : sources_) {
    if (node != nullptr) merged.MergeFrom(node->fault_stats());
  }
  return merged;
}

Status StreamShard::VerifyMirrorConsistency() const {
  for (const auto& [id, node] : sources_) {
    if (node == nullptr) continue;  // batch-resident: one lane, see above
    auto predictor_or = server_.predictor(id);
    if (!predictor_or.ok()) return predictor_or.status();
    if (!node->mirror().StateEquals(*predictor_or.value())) {
      return Status::Internal(
          StrFormat("mirror-consistency violated for source %d", id));
    }
  }
  return Status::OK();
}

Result<const SourceNode*> StreamShard::FindNode(
    int source_id, std::optional<FleetEngine::ResidentSource>* resident) const {
  auto it = sources_.find(source_id);
  if (it == sources_.end()) {
    return Status::NotFound(StrFormat("source %d not registered", source_id));
  }
  if (it->second == nullptr) *resident = fleet_->FindResident(source_id);
  return it->second.get();
}

std::optional<FleetEngine::ResidentSource> StreamShard::FindLane(
    int source_id) const {
  if (fleet_ == nullptr) return std::nullopt;
  return fleet_->FindResident(source_id);
}

Result<double> StreamShard::source_delta(int source_id) const {
  std::optional<FleetEngine::ResidentSource> resident;
  DKF_ASSIGN_OR_RETURN(const SourceNode* node, FindNode(source_id, &resident));
  return node != nullptr ? node->delta() : resident->delta;
}

Result<SourceUsage> StreamShard::source_usage(int source_id) const {
  std::optional<FleetEngine::ResidentSource> resident;
  DKF_ASSIGN_OR_RETURN(const SourceNode* node, FindNode(source_id, &resident));
  SourceUsage usage;
  usage.readings = node != nullptr ? node->readings() : resident->readings;
  usage.updates_sent =
      node != nullptr ? node->updates_sent() : resident->updates_sent;
  usage.uplink_bytes = channel_.for_source(source_id).bytes;
  usage.energy = node != nullptr ? node->energy().total() : resident->energy;
  return usage;
}

Result<size_t> StreamShard::source_dim(int source_id) const {
  std::optional<FleetEngine::ResidentSource> resident;
  DKF_ASSIGN_OR_RETURN(const SourceNode* node, FindNode(source_id, &resident));
  return node != nullptr ? node->mirror().dim() : resident->measurement_dim;
}

Result<const StateModel*> StreamShard::source_model(int source_id) const {
  std::optional<FleetEngine::ResidentSource> resident;
  DKF_ASSIGN_OR_RETURN(const SourceNode* node, FindNode(source_id, &resident));
  return node != nullptr ? &node->model() : resident->model;
}

const NoiseAdapter* StreamShard::source_noise_adapter(int source_id) const {
  std::optional<FleetEngine::ResidentSource> resident;
  auto node_or = FindNode(source_id, &resident);
  if (!node_or.ok()) return nullptr;
  return node_or.value() != nullptr ? &node_or.value()->noise_adapter()
                                    : resident->noise_adapter;
}

FleetFootprint StreamShard::fleet_footprint() const {
  if (fleet_ != nullptr) return fleet_->footprint();
  FleetFootprint footprint;
  footprint.nodes_live = static_cast<int64_t>(sources_.size());
  return footprint;
}

Result<SourceNode::CheckpointState> StreamShard::ExportSourceState(
    int source_id) const {
  std::optional<FleetEngine::ResidentSource> resident;
  DKF_ASSIGN_OR_RETURN(const SourceNode* node, FindNode(source_id, &resident));
  if (node == nullptr) return fleet_->SynthesizeSourceState(*resident);
  return node->ExportCheckpoint();
}

Result<ServerNode::LinkSnapshot> StreamShard::ExportLinkState(
    int source_id) const {
  if (const auto lane = FindLane(source_id)) {
    return fleet_->SynthesizeLinkState(*lane);
  }
  return server_.ExportLink(source_id);
}

}  // namespace dkf
