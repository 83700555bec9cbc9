#include "runtime/sharded_engine.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/string_util.h"

namespace dkf {

namespace {

int ClampShards(int num_shards) { return std::max(1, num_shards); }

/// Whether every reading in values[begin, end) is finite. x * 0 is 0
/// for every finite x and NaN for a NaN or an infinity, so one sum
/// screens the range without a branch per reading.
bool AllFinite(const std::vector<Vector>& values, size_t begin, size_t end) {
  double poison = 0.0;
  for (size_t i = begin; i < end; ++i) {
    const double* x = values[i].data();
    for (size_t k = 0; k < values[i].size(); ++k) poison += x[k] * 0.0;
  }
  return poison == 0.0;
}

/// InvalidArgument naming the first source in `batch` whose reading
/// holds a NaN or an infinity.
Status FirstNonFinite(const ReadingBatch& batch) {
  for (size_t i = 0; i < batch.values.size(); ++i) {
    if (!AllFinite(batch.values, i, i + 1)) {
      return Status::InvalidArgument(
          StrFormat("reading for source %d is not finite", batch.ids[i]));
    }
  }
  return Status::OK();
}

}  // namespace

/// The serving layer's view of the whole engine, used by the
/// engine-level aggregate subscriptions: member values are read from
/// their owning shards, aggregate sums in declared member order.
/// Driver-thread only, between ticks / after the tick joins.
class ShardedStreamEngine::ServeAnswers final : public ServeAnswerSource {
 public:
  explicit ServeAnswers(const ShardedStreamEngine& engine) : engine_(engine) {}

  Result<double> SourceValue(int source_id, double* variance) const override {
    return engine_.OwningShard(source_id).AnswerScalar(source_id, variance);
  }

  Result<double> AggregateValue(int aggregate_id) const override {
    return engine_.AnswerAggregateCanonical(aggregate_id);
  }

  Result<double> FusedValue(int group_id) const override {
    auto answer_or = engine_.AnswerFused(group_id);
    if (!answer_or.ok()) return answer_or.status();
    return answer_or.value()[0];
  }

 private:
  const ShardedStreamEngine& engine_;
};

ShardedStreamEngine::ShardedStreamEngine(
    const ShardedStreamEngineOptions& options)
    : options_(options),
      channel_status_(ValidateChannelOptions(options.channel)),
      aggregate_serve_(options.serve),
      pool_(static_cast<size_t>(ClampShards(options.num_shards) - 1)) {
  options_.num_shards = ClampShards(options.num_shards);
  shards_.reserve(static_cast<size_t>(options_.num_shards));
  for (int i = 0; i < options_.num_shards; ++i) {
    shards_.push_back(std::make_unique<StreamShard>(
        options_.channel, options_.energy, options_.default_delta,
        options_.protocol, options_.serve));
    if (options_.batched_fleet) {
      // Cannot fail: the shard is empty.
      (void)shards_.back()->EnableFleet();
    }
  }
  slices_.resize(shards_.size());
  if (options_.governor.enabled) {
    governor_ = std::make_unique<DeltaGovernor>(options_.governor);
  }
}

size_t ShardedStreamEngine::fleet_resident_count() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->fleet_resident_count();
  return total;
}

Result<bool> ShardedStreamEngine::fleet_resident(int source_id) const {
  if (!HasSource(source_id)) {
    return Status::NotFound(StrFormat("source %d not registered", source_id));
  }
  return OwningShard(source_id).fleet_resident(source_id);
}

int ShardedStreamEngine::ShardIndexFor(int source_id) const {
  const int n = static_cast<int>(shards_.size());
  return ((source_id % n) + n) % n;
}

Status ShardedStreamEngine::RegisterSource(int source_id,
                                           const StateModel& model) {
  DKF_RETURN_IF_ERROR(channel_status_);
  if (HasSource(source_id)) {
    return Status::AlreadyExists(
        StrFormat("source %d already registered", source_id));
  }
  if (fusion_members_.contains(source_id)) {
    return Status::AlreadyExists(
        StrFormat("id %d already belongs to fusion group %d", source_id,
                  fusion_members_.at(source_id)));
  }
  DKF_RETURN_IF_ERROR(OwningShard(source_id).AddSource(source_id, model));
  registered_.insert(source_id);
  return Status::OK();
}

Status ShardedStreamEngine::SubmitQuery(const ContinuousQuery& query) {
  if (query.id >= kReservedQueryIdBase) {
    return Status::InvalidArgument(
        StrFormat("query ids >= %d are reserved for aggregate members",
                  kReservedQueryIdBase));
  }
  if (!HasSource(query.source_id)) {
    return Status::NotFound(
        StrFormat("query %d targets unregistered source %d", query.id,
                  query.source_id));
  }
  DKF_RETURN_IF_ERROR(registry_.AddQuery(query));
  return OwningShard(query.source_id).Reconfigure(query.source_id, registry_);
}

Status ShardedStreamEngine::RemoveQuery(int query_id) {
  if (query_id >= kReservedQueryIdBase) {
    return Status::InvalidArgument(
        "aggregate members are removed via RemoveAggregateQuery");
  }
  // Find the query's source before removal so we can relax it after.
  int source_id = -1;
  for (int candidate : registry_.ActiveSources()) {
    for (const ContinuousQuery& query :
         registry_.QueriesForSource(candidate)) {
      if (query.id == query_id) source_id = candidate;
    }
  }
  DKF_RETURN_IF_ERROR(registry_.RemoveQuery(query_id));
  if (source_id >= 0) {
    return OwningShard(source_id).Reconfigure(source_id, registry_);
  }
  return Status::OK();
}

Status ShardedStreamEngine::RegisterFusionGroup(
    const FusionGroupConfig& config) {
  DKF_RETURN_IF_ERROR(channel_status_);
  if (fusion_groups_.contains(config.group_id)) {
    return Status::AlreadyExists(
        StrFormat("fusion group %d already registered", config.group_id));
  }
  // Engine-wide disjointness: member ids share the per-source namespace
  // with plain sources and every other group's members, regardless of
  // which shards the colliding ids landed on.
  for (int member_id : config.member_ids) {
    if (HasSource(member_id)) {
      return Status::AlreadyExists(
          StrFormat("fusion member id %d is a registered source", member_id));
    }
    if (fusion_members_.contains(member_id)) {
      return Status::AlreadyExists(
          StrFormat("fusion member id %d already belongs to group %d",
                    member_id, fusion_members_.at(member_id)));
    }
  }
  // The whole group rides one shard: the posterior and every member
  // mirror must tick on the same worker for the intra-tick broadcast
  // diffusion to stay share-nothing.
  const int shard = ShardIndexFor(config.group_id);
  DKF_RETURN_IF_ERROR(
      shards_[static_cast<size_t>(shard)]->RegisterFusionGroup(config));
  fusion_groups_[config.group_id] = shard;
  for (int member_id : config.member_ids) {
    fusion_members_[member_id] = config.group_id;
  }
  return Status::OK();
}

Status ShardedStreamEngine::AddFusionMember(int group_id, int member_id) {
  auto it = fusion_groups_.find(group_id);
  if (it == fusion_groups_.end()) {
    return Status::NotFound(
        StrFormat("fusion group %d not registered", group_id));
  }
  if (HasSource(member_id)) {
    return Status::AlreadyExists(
        StrFormat("fusion member id %d is a registered source", member_id));
  }
  if (fusion_members_.contains(member_id)) {
    return Status::AlreadyExists(
        StrFormat("fusion member id %d already belongs to group %d",
                  member_id, fusion_members_.at(member_id)));
  }
  DKF_RETURN_IF_ERROR(shards_[static_cast<size_t>(it->second)]
                          ->AddFusionMember(group_id, member_id));
  fusion_members_[member_id] = group_id;
  return Status::OK();
}

Status ShardedStreamEngine::RemoveFusionMember(int group_id, int member_id) {
  auto it = fusion_groups_.find(group_id);
  if (it == fusion_groups_.end()) {
    return Status::NotFound(
        StrFormat("fusion group %d not registered", group_id));
  }
  DKF_RETURN_IF_ERROR(shards_[static_cast<size_t>(it->second)]
                          ->RemoveFusionMember(group_id, member_id));
  fusion_members_.erase(member_id);
  return Status::OK();
}

Status ShardedStreamEngine::SubmitFusedQuery(const FusedQuery& query) {
  if (query.id >= kReservedQueryIdBase) {
    return Status::InvalidArgument(
        StrFormat("query ids >= %d are reserved for aggregate members",
                  kReservedQueryIdBase));
  }
  auto it = fusion_groups_.find(query.group_id);
  if (it == fusion_groups_.end()) {
    return Status::NotFound(
        StrFormat("fused query %d targets unregistered fusion group %d",
                  query.id, query.group_id));
  }
  DKF_RETURN_IF_ERROR(registry_.AddFusedQuery(query));
  return shards_[static_cast<size_t>(it->second)]->ReconfigureFusionGroup(
      query.group_id, registry_);
}

Status ShardedStreamEngine::RemoveFusedQuery(int query_id) {
  // Find the query's group before removal so we can relax it after.
  int group_id = -1;
  for (int candidate : registry_.ActiveGroups()) {
    for (const FusedQuery& query :
         registry_.FusedQueriesForGroup(candidate)) {
      if (query.id == query_id) group_id = candidate;
    }
  }
  DKF_RETURN_IF_ERROR(registry_.RemoveFusedQuery(query_id));
  if (group_id >= 0) {
    return shards_[static_cast<size_t>(fusion_groups_.at(group_id))]
        ->ReconfigureFusionGroup(group_id, registry_);
  }
  return Status::OK();
}

Result<Vector> ShardedStreamEngine::AnswerFused(int group_id) const {
  auto it = fusion_groups_.find(group_id);
  if (it == fusion_groups_.end()) {
    return Status::NotFound(
        StrFormat("fusion group %d not registered", group_id));
  }
  return shards_[static_cast<size_t>(it->second)]->AnswerFused(group_id);
}

Result<FusionEngine::ConfidentAnswer>
ShardedStreamEngine::AnswerFusedWithConfidence(int group_id) const {
  auto it = fusion_groups_.find(group_id);
  if (it == fusion_groups_.end()) {
    return Status::NotFound(
        StrFormat("fusion group %d not registered", group_id));
  }
  return shards_[static_cast<size_t>(it->second)]->AnswerFusedWithConfidence(
      group_id);
}

Result<bool> ShardedStreamEngine::fused_degraded(int group_id) const {
  auto it = fusion_groups_.find(group_id);
  if (it == fusion_groups_.end()) {
    return Status::NotFound(
        StrFormat("fusion group %d not registered", group_id));
  }
  return shards_[static_cast<size_t>(it->second)]->fused_degraded(group_id);
}

const FusionEngine* ShardedStreamEngine::fusion_for_group(int group_id) const {
  auto it = fusion_groups_.find(group_id);
  if (it == fusion_groups_.end()) return nullptr;
  return &shards_[static_cast<size_t>(it->second)]->fusion();
}

FusionStats ShardedStreamEngine::fusion_stats() const {
  FusionStats merged;
  for (const auto& shard : shards_) {
    merged.MergeFrom(shard->fusion_stats());
  }
  return merged;
}

Status ShardedStreamEngine::VerifyFusedConsistency() const {
  for (const auto& shard : shards_) {
    DKF_RETURN_IF_ERROR(shard->VerifyFusedConsistency());
  }
  return Status::OK();
}

Status ShardedStreamEngine::SubmitAggregateQuery(
    const AggregateQuery& query, const std::vector<double>& weights) {
  if (aggregates_.contains(query.id)) {
    return Status::AlreadyExists(
        StrFormat("aggregate %d already registered", query.id));
  }
  for (int source_id : query.source_ids) {
    if (!HasSource(source_id)) {
      return Status::NotFound(
          StrFormat("aggregate %d targets unregistered source %d", query.id,
                    source_id));
    }
    auto dim_or = OwningShard(source_id).source_dim(source_id);
    if (!dim_or.ok()) return dim_or.status();
    if (dim_or.value() != 1) {
      return Status::InvalidArgument(
          "aggregate queries support scalar sources only");
    }
  }
  auto deltas_or = SplitAggregatePrecision(query, weights);
  if (!deltas_or.ok()) return deltas_or.status();
  const std::vector<double>& deltas = deltas_or.value();

  AggregateBinding binding;
  binding.source_ids = query.source_ids;
  for (size_t i = 0; i < query.source_ids.size(); ++i) {
    ContinuousQuery member;
    member.id = kReservedQueryIdBase + query.id * 1024 +
                static_cast<int>(i);
    member.source_id = query.source_ids[i];
    member.precision = deltas[i];
    member.description = StrFormat("aggregate %d member", query.id);
    Status status = registry_.AddQuery(member);
    if (!status.ok()) {
      // Roll back the members installed so far.
      for (int installed : binding.synthetic_query_ids) {
        (void)registry_.RemoveQuery(installed);
      }
      return status;
    }
    binding.synthetic_query_ids.push_back(member.id);
  }
  for (int source_id : query.source_ids) {
    DKF_RETURN_IF_ERROR(
        OwningShard(source_id).Reconfigure(source_id, registry_));
  }
  aggregates_[query.id] = std::move(binding);
  return Status::OK();
}

Status ShardedStreamEngine::RemoveAggregateQuery(int aggregate_id) {
  auto it = aggregates_.find(aggregate_id);
  if (it == aggregates_.end()) {
    return Status::NotFound(
        StrFormat("aggregate %d not registered", aggregate_id));
  }
  if (aggregate_serve_.has_aggregate_subscriptions(aggregate_id)) {
    return Status::FailedPrecondition(
        StrFormat("aggregate %d still has standing subscriptions",
                  aggregate_id));
  }
  for (int query_id : it->second.synthetic_query_ids) {
    DKF_RETURN_IF_ERROR(registry_.RemoveQuery(query_id));
  }
  for (int source_id : it->second.source_ids) {
    DKF_RETURN_IF_ERROR(
        OwningShard(source_id).Reconfigure(source_id, registry_));
  }
  aggregates_.erase(it);
  return Status::OK();
}

Result<double> ShardedStreamEngine::AnswerAggregateCanonical(
    int aggregate_id) const {
  DKF_ASSIGN_OR_RETURN(const AggregateAnswer aggregate,
                       SumAggregate(aggregate_id, /*count_degraded=*/false));
  return aggregate.value;
}

Result<ShardedStreamEngine::AggregateAnswer>
ShardedStreamEngine::AnswerAggregateWithStatus(int aggregate_id) const {
  return SumAggregate(aggregate_id, /*count_degraded=*/true);
}

Result<ShardedStreamEngine::AggregateAnswer>
ShardedStreamEngine::SumAggregate(int aggregate_id,
                                  bool count_degraded) const {
  auto it = aggregates_.find(aggregate_id);
  if (it == aggregates_.end()) {
    return Status::NotFound(
        StrFormat("aggregate %d not registered", aggregate_id));
  }
  AggregateAnswer aggregate;
  for (int source_id : it->second.source_ids) {
    const StreamShard& shard = OwningShard(source_id);
    DKF_ASSIGN_OR_RETURN(const Vector answer, shard.Answer(source_id));
    aggregate.value += answer[0];
    if (!count_degraded) continue;
    DKF_ASSIGN_OR_RETURN(const bool degraded,
                         shard.answer_degraded(source_id));
    if (degraded) ++aggregate.degraded_members;
  }
  return aggregate;
}

Status ShardedStreamEngine::CheckReadingCount(size_t count) const {
  if (count != registered_.size() + fusion_members_.size()) {
    return Status::InvalidArgument(
        StrFormat("got %zu readings for %zu sources + %zu fusion members",
                  count, registered_.size(), fusion_members_.size()));
  }
  return Status::OK();
}

Status ShardedStreamEngine::PartitionReadings(const std::vector<int>& ids) {
  // The known layout costs one compare of the id array plus a topology
  // stamp per shard — no per-id lookups.
  bool known = ids == layout_ids_;
  for (size_t i = 0; known && i < shards_.size(); ++i) {
    known = slices_[i].topology == shards_[i]->topology();
  }
  if (known) return Status::OK();
  // A new layout is checked in full, once. The count already equals
  // sources + fusion members, so every shard finding each of its ids
  // means each one appears exactly once: a duplicate or a foreign id
  // would leave some owned id without a position. The slices are
  // resolved aside and kept only once all of them are whole, so a
  // refused layout leaves the cached one intact.
  const ReadingIndex index = IndexReadings(ids);
  std::vector<ShardReadingSlice> slices(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    DKF_RETURN_IF_ERROR(shards_[i]->ResolveSlice(index, &slices[i]));
  }
  slices_ = std::move(slices);
  layout_ids_ = ids;
  return Status::OK();
}

Status ShardedStreamEngine::ProcessTick(const std::map<int, Vector>& readings) {
  ReadingBatch batch;
  batch.ids.reserve(readings.size());
  batch.values.reserve(readings.size());
  for (const auto& [id, value] : readings) {
    batch.ids.push_back(id);
    batch.values.push_back(value);
  }
  return ProcessTick(batch);
}

Status ShardedStreamEngine::ProcessTick(const ReadingBatch& batch) {
  if (batch.ids.size() != batch.values.size()) {
    return Status::InvalidArgument(
        StrFormat("reading batch has %zu ids but %zu values",
                  batch.ids.size(), batch.values.size()));
  }
  DKF_RETURN_IF_ERROR(CheckReadingCount(batch.ids.size()));
  // Validated before any shard is dispatched: a rejected batch leaves
  // every shard untouched.
  DKF_RETURN_IF_ERROR(PartitionReadings(batch.ids));
  // A NaN would be silently suppressed (every comparison against it is
  // false) and an infinity diverges the filter it corrects, so the batch
  // is screened before any shard ticks. Tasks [0, n) screen equal ranges
  // of the batch, one per shard, and tasks [n, 2n) tick the shards: the
  // pool claims tasks in order, so the screens run in parallel while the
  // workers wake, and a tick task only ever waits for screens that are
  // already running.
  const size_t n = shards_.size();
  const int64_t tick = ticks_;
  std::atomic<size_t> screened{0};
  std::atomic<bool> finite{true};
  DKF_RETURN_IF_ERROR(pool_.RunAll(2 * n, [&](size_t index) -> Status {
    if (index < n) {
      const size_t begin = batch.values.size() * index / n;
      const size_t end = batch.values.size() * (index + 1) / n;
      if (!AllFinite(batch.values, begin, end)) {
        finite.store(false, std::memory_order_relaxed);
      }
      screened.fetch_add(1, std::memory_order_release);
      return Status::OK();
    }
    while (screened.load(std::memory_order_acquire) < n) {
      std::this_thread::yield();
    }
    if (!finite.load(std::memory_order_relaxed)) return Status::OK();
    return shards_[index - n]->ProcessTick(tick, batch, slices_[index - n]);
  }));
  if (!finite.load(std::memory_order_relaxed)) return FirstNonFinite(batch);
  // Aggregate subscriptions read members on every shard, so their serve
  // pass runs on the driver after the tick joins.
  DKF_RETURN_IF_ERROR(aggregate_serve_.EndTick(tick, ServeAnswers(*this)));
  DKF_RETURN_IF_ERROR(MaybeRunGovernor());
  ++ticks_;
  return Status::OK();
}

Status ShardedStreamEngine::Subscribe(const Subscription& subscription) {
  // Ids order the merged notification stream, so they must be unique
  // across every shard slice and the aggregate slice.
  if (aggregate_serve_.has_subscription(subscription.id)) {
    return Status::AlreadyExists(
        StrFormat("subscription %lld already registered",
                  static_cast<long long>(subscription.id)));
  }
  for (const auto& shard : shards_) {
    if (shard->has_subscription(subscription.id)) {
      return Status::AlreadyExists(
          StrFormat("subscription %lld already registered",
                    static_cast<long long>(subscription.id)));
    }
  }
  if (subscription.kind == SubscriptionKind::kFused) {
    // Fused subscriptions live on the group's pinned shard — never the
    // engine-level aggregate slice — so notification evaluation runs on
    // the same worker that owns the posterior.
    auto it = fusion_groups_.find(subscription.group_id);
    if (it == fusion_groups_.end()) {
      return Status::NotFound(
          StrFormat("subscription %lld targets unregistered fusion group %d",
                    static_cast<long long>(subscription.id),
                    subscription.group_id));
    }
    return shards_[static_cast<size_t>(it->second)]->Subscribe(subscription,
                                                               ticks_);
  }
  if (subscription.kind == SubscriptionKind::kAggregate) {
    auto it = aggregates_.find(subscription.aggregate_id);
    if (it == aggregates_.end()) {
      return Status::NotFound(
          StrFormat("subscription %lld targets unregistered aggregate %d",
                    static_cast<long long>(subscription.id),
                    subscription.aggregate_id));
    }
    return aggregate_serve_.Subscribe(subscription, ticks_,
                                      ServeAnswers(*this),
                                      it->second.source_ids);
  }
  if (!HasSource(subscription.source_id)) {
    return Status::NotFound(
        StrFormat("subscription %lld targets unregistered source %d",
                  static_cast<long long>(subscription.id),
                  subscription.source_id));
  }
  return OwningShard(subscription.source_id)
      .Subscribe(subscription, ticks_);
}

Status ShardedStreamEngine::Unsubscribe(int64_t subscription_id) {
  if (aggregate_serve_.has_subscription(subscription_id)) {
    return aggregate_serve_.Unsubscribe(subscription_id);
  }
  for (const auto& shard : shards_) {
    if (shard->has_subscription(subscription_id)) {
      return shard->Unsubscribe(subscription_id);
    }
  }
  return Status::NotFound(
      StrFormat("subscription %lld not registered",
                static_cast<long long>(subscription_id)));
}

Status ShardedStreamEngine::RefreshServeCaches() {
  return aggregate_serve_.RefreshCaches(ServeAnswers(*this));
}

std::vector<NotificationBatch> ShardedStreamEngine::DrainNotifications() {
  // A quiet drain skips the merge, whose stream list is an allocation.
  bool pending = !aggregate_serve_.pending().empty();
  for (const auto& shard : shards_) {
    pending = pending || shard->has_pending_notifications();
  }
  if (!pending) return {};
  std::vector<std::vector<NotificationBatch>> streams;
  streams.reserve(shards_.size() + 1);
  for (const auto& shard : shards_) {
    streams.push_back(shard->DrainNotifications());
  }
  streams.push_back(aggregate_serve_.Drain());
  return MergeNotificationBatches(std::move(streams));
}

ServeStats ShardedStreamEngine::serve_stats() const {
  ServeStats merged = aggregate_serve_.stats();
  for (const auto& shard : shards_) merged.MergeFrom(shard->serve_stats());
  return merged;
}

size_t ShardedStreamEngine::num_subscriptions() const {
  size_t total = aggregate_serve_.num_subscriptions();
  for (const auto& shard : shards_) total += shard->num_subscriptions();
  return total;
}

Result<Vector> ShardedStreamEngine::Answer(int source_id) const {
  return OwningShard(source_id).Answer(source_id);
}

Result<ServerNode::ConfidentAnswer> ShardedStreamEngine::AnswerWithConfidence(
    int source_id) const {
  return OwningShard(source_id).AnswerWithConfidence(source_id);
}

Status ShardedStreamEngine::VerifyMirrorConsistency() const {
  for (const auto& shard : shards_) {
    DKF_RETURN_IF_ERROR(shard->VerifyMirrorConsistency());
  }
  return Status::OK();
}

ChannelStats ShardedStreamEngine::uplink_traffic() const {
  ChannelStats merged;
  for (const auto& shard : shards_) merged.MergeFrom(shard->uplink_traffic());
  return merged;
}

Status ShardedStreamEngine::VerifyLinkConsistency() const {
  for (const auto& shard : shards_) {
    DKF_RETURN_IF_ERROR(shard->VerifyLinkConsistency());
  }
  return Status::OK();
}

Result<bool> ShardedStreamEngine::answer_degraded(int source_id) const {
  if (!HasSource(source_id)) {
    return Status::NotFound(StrFormat("source %d not registered", source_id));
  }
  return OwningShard(source_id).answer_degraded(source_id);
}

Result<bool> ShardedStreamEngine::resync_pending(int source_id) const {
  if (!HasSource(source_id)) {
    return Status::NotFound(StrFormat("source %d not registered", source_id));
  }
  return OwningShard(source_id).resync_pending(source_id);
}

ProtocolFaultStats ShardedStreamEngine::fault_stats() const {
  ProtocolFaultStats merged;
  for (const auto& shard : shards_) {
    merged.MergeFrom(shard->fault_stats());
  }
  return merged;
}

int64_t ShardedStreamEngine::control_messages() const {
  int64_t total = 0;
  for (const auto& shard : shards_) total += shard->control_messages();
  return total;
}

Result<double> ShardedStreamEngine::source_delta(int source_id) const {
  if (!HasSource(source_id)) {
    return Status::NotFound(StrFormat("source %d not registered", source_id));
  }
  return OwningShard(source_id).source_delta(source_id);
}

Status ShardedStreamEngine::ReconfigureSources(
    const std::vector<std::pair<int, double>>& deltas) {
  for (const auto& [source_id, delta] : deltas) {
    if (!HasSource(source_id)) {
      return Status::NotFound(
          StrFormat("source %d not registered", source_id));
    }
    if (!(delta > 0.0)) {
      return Status::InvalidArgument(
          StrFormat("delta for source %d must be positive", source_id));
    }
  }
  // One fan-out per owning shard, ascending shard index; within a shard
  // the caller's order is preserved.
  std::vector<std::vector<std::pair<int, double>>> per_shard(shards_.size());
  for (const auto& entry : deltas) {
    per_shard[static_cast<size_t>(ShardIndexFor(entry.first))].push_back(
        entry);
  }
  for (size_t shard = 0; shard < shards_.size(); ++shard) {
    if (per_shard[shard].empty()) continue;
    DKF_RETURN_IF_ERROR(shards_[shard]->ReconfigureSources(per_shard[shard]));
  }
  return Status::OK();
}

int64_t ShardedStreamEngine::fleet_spill_count() const {
  return fleet_counters().spill_total();
}

FleetCounters ShardedStreamEngine::fleet_counters() const {
  FleetCounters total;
  for (const auto& shard : shards_) total += shard->fleet_counters();
  return total;
}

FleetFootprint ShardedStreamEngine::fleet_footprint() const {
  FleetFootprint total;
  for (const auto& shard : shards_) total += shard->fleet_footprint();
  return total;
}

Status ShardedStreamEngine::MaybeRunGovernor() {
  if (governor_ == nullptr) return Status::OK();
  const int64_t tick = ticks_;  // the tick that just finished
  const int64_t epoch_ticks = governor_->options().epoch_ticks;
  if (epoch_ticks < 1) {
    return Status::InvalidArgument("governor epoch_ticks must be >= 1");
  }
  // Stateless schedule: epoch boundaries depend only on the tick count,
  // so a snapshot restored mid-epoch resumes the exact same cadence.
  if ((tick + 1) % epoch_ticks != 0) return Status::OK();

  std::vector<GovernorSourceSample> samples;
  samples.reserve(registered_.size());
  for (int source_id : registered_) {
    const StreamShard& shard = OwningShard(source_id);
    GovernorSourceSample sample;
    sample.source_id = source_id;
    DKF_ASSIGN_OR_RETURN(const SourceUsage usage,
                         shard.source_usage(source_id));
    sample.bytes = usage.uplink_bytes;
    sample.updates = usage.updates_sent;
    auto delta_or = shard.source_delta(source_id);
    if (!delta_or.ok()) return delta_or.status();
    sample.delta = delta_or.value();
    auto pending_or = shard.resync_pending(source_id);
    if (!pending_or.ok()) return pending_or.status();
    auto degraded_or = shard.answer_degraded(source_id);
    if (!degraded_or.ok()) return degraded_or.status();
    sample.unhealthy = pending_or.value() || degraded_or.value();
    samples.push_back(sample);
  }

  auto result_or = governor_->PlanEpoch(samples);
  if (!result_or.ok()) return result_or.status();
  const GovernorEpochResult& result = result_or.value();

  if (!result.changes.empty()) {
    std::vector<std::pair<int, double>> installs;
    installs.reserve(result.changes.size());
    for (const DeltaChange& change : result.changes) {
      installs.emplace_back(change.source_id, change.delta);
    }
    DKF_RETURN_IF_ERROR(ReconfigureSources(installs));
  }

  if (!sinks_.empty()) {
    // Per-source events go to the OWNING shard's sink so the merged
    // trace is layout-invariant: all events for one (step, source) must
    // live in one stream, in emission order, at any shard count.
    for (const DeltaChange& change : result.changes) {
      sinks_[static_cast<size_t>(ShardIndexFor(change.source_id))]->Emit(
          tick, change.source_id,
          change.delta > change.previous ? TraceEventKind::kDeltaRaise
                                         : TraceEventKind::kDeltaLower,
          TraceActor::kGovernor, change.delta, change.previous,
          result.epoch);
    }
    for (int source_id : result.newly_frozen) {
      sinks_[static_cast<size_t>(ShardIndexFor(source_id))]->Emit(
          tick, source_id, TraceEventKind::kGovernorFreeze,
          TraceActor::kGovernor, governor_->states().at(source_id).held_delta,
          0.0, result.epoch);
    }
    // The epoch summary carries a negative source key, parked in shard
    // 0's sink like the aggregate-serve events.
    sinks_.front()->Emit(tick, -1, TraceEventKind::kGovernorEpoch,
                         TraceActor::kGovernor, result.spend, result.budget,
                         result.epoch);
    sinks_.front()->SetGauge("governor.budget_bytes_per_tick", result.budget);
    sinks_.front()->SetGauge("governor.spend_bytes_per_tick", result.spend);
    sinks_.front()->SetGauge("governor.overshoot", result.overshoot);
    sinks_.front()->SetGauge("governor.frozen",
                             static_cast<double>(result.frozen));
  }
  return Status::OK();
}

Status ShardedStreamEngine::EnableTracing(const ObsOptions& obs) {
  if (obs.ring_capacity > kMaxTraceRingCapacity) {
    return Status::InvalidArgument(StrFormat(
        "trace ring capacity %zu exceeds the limit of %zu events",
        obs.ring_capacity, kMaxTraceRingCapacity));
  }
  sinks_.clear();
  sinks_.reserve(shards_.size());
  for (auto& shard : shards_) {
    sinks_.push_back(std::make_unique<TraceSink>(obs));
    shard->set_trace_sink(sinks_.back().get());
  }
  // Aggregate-serve events carry negative source keys, so parking them
  // in shard 0's sink keeps the merged trace layout-invariant.
  aggregate_serve_.set_trace_sink(sinks_.front().get());
  return Status::OK();
}

void ShardedStreamEngine::DisableTracing() {
  for (auto& shard : shards_) shard->set_trace_sink(nullptr);
  aggregate_serve_.set_trace_sink(nullptr);
  sinks_.clear();
}

std::vector<TraceEvent> ShardedStreamEngine::MergedTrace() const {
  std::vector<std::vector<TraceEvent>> per_shard;
  per_shard.reserve(sinks_.size());
  for (const auto& sink : sinks_) per_shard.push_back(sink->Events());
  return MergeTraces(per_shard);
}

MetricsRegistry ShardedStreamEngine::MetricsSnapshot() const {
  MetricsRegistry registry;
  for (const auto& sink : sinks_) sink->SnapshotInto(&registry);
  // Re-derive the ratio gauges over the *merged* counters (each fold's
  // own derivation only saw a prefix of the shards).
  DeriveRates(&registry);
  // Per-source uplink accounting, keyed by source id — shard-invariant
  // because the per-source channel counters are (per-source RNG) and
  // the governor's EWMA state is layout-free.
  if (!sinks_.empty()) {
    for (int source_id : registered_) {
      const StreamShard& shard = OwningShard(source_id);
      const ChannelStats& uplink = shard.source_uplink(source_id);
      registry.SetGauge(StrFormat("uplink.bytes.%d", source_id),
                        static_cast<double>(uplink.bytes));
      const NoiseAdapter* adapter = shard.source_noise_adapter(source_id);
      if (adapter != nullptr && adapter->enabled()) {
        registry.SetGauge(StrFormat("adapt.r_scale.%d", source_id),
                          adapter->r_scale());
        registry.SetGauge(StrFormat("adapt.q_scale.%d", source_id),
                          adapter->q_scale());
      }
    }
    if (governor_ != nullptr) {
      for (const auto& [source_id, state] : governor_->states()) {
        registry.SetGauge(
            StrFormat("uplink.updates_rate_ewma.%d", source_id),
            state.ewma_updates);
      }
    }
  }
  return registry;
}

MetricsRegistry ShardedStreamEngine::FleetMetricsSnapshot() const {
  MetricsRegistry registry;
  if (sinks_.empty() || !options_.batched_fleet) return registry;
  const FleetCounters fleet = fleet_counters();
  for (size_t i = 0; i < fleet.spills.size(); ++i) {
    registry.SetGauge(StrFormat("fleet.spill.%s", kFleetSpillReasonNames[i]),
                      static_cast<double>(fleet.spills[i]));
  }
  for (size_t i = 0; i < fleet.absorb_rejects.size(); ++i) {
    registry.SetGauge(
        StrFormat("fleet.absorb_reject.%s", kFleetAbsorbRejectNames[i]),
        static_cast<double>(fleet.absorb_rejects[i]));
  }
  registry.SetGauge("fleet.nodes_live",
                    static_cast<double>(fleet_footprint().nodes_live));
  return registry;
}

Result<int64_t> ShardedStreamEngine::updates_sent(int source_id) const {
  DKF_ASSIGN_OR_RETURN(const SourceUsage usage, source_usage(source_id));
  return usage.updates_sent;
}

Result<SourceUsage> ShardedStreamEngine::source_usage(int source_id) const {
  if (!HasSource(source_id)) {
    return Status::NotFound(StrFormat("source %d not registered", source_id));
  }
  return OwningShard(source_id).source_usage(source_id);
}

}  // namespace dkf
