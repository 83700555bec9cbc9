#include "serve/subscription_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/string_util.h"

namespace dkf {

namespace {

/// Inclusive band membership — the one predicate definition shared by
/// attach-time evaluation, the fan-out index, and the golden tests.
bool Contains(const Subscription& spec, double value) {
  return spec.lo <= value && value <= spec.hi;
}

void InsertSorted(std::vector<int64_t>* ids, int64_t id) {
  ids->insert(std::lower_bound(ids->begin(), ids->end(), id), id);
}

void EraseSorted(std::vector<int64_t>* ids, int64_t id) {
  auto it = std::lower_bound(ids->begin(), ids->end(), id);
  if (it != ids->end() && *it == id) ids->erase(it);
}

Status ValidateSubscription(const Subscription& spec,
                            const std::vector<int>& aggregate_members) {
  if (spec.id < 0) {
    return Status::InvalidArgument("subscription ids must be non-negative");
  }
  // Negative keys in the notification order are reserved for aggregate
  // and fused subscriptions (AggregateSourceKey / FusedSourceKey), so
  // per-source kinds must target non-negative source ids.
  if (spec.kind != SubscriptionKind::kAggregate &&
      spec.kind != SubscriptionKind::kFused && spec.source_id < 0) {
    return Status::InvalidArgument(
        "subscriptions require a non-negative source id");
  }
  if (spec.kind == SubscriptionKind::kFused && spec.group_id < 0) {
    return Status::InvalidArgument(
        "fused subscriptions require a non-negative group id");
  }
  const bool interval = spec.kind == SubscriptionKind::kBandAlert ||
                        spec.kind == SubscriptionKind::kRangePredicate;
  if (interval) {
    if (!std::isfinite(spec.lo) || !std::isfinite(spec.hi) ||
        spec.lo > spec.hi) {
      return Status::InvalidArgument(
          StrFormat("subscription %lld has an invalid band",
                    static_cast<long long>(spec.id)));
    }
  }
  if (spec.uncertainty_ceiling != 0.0 &&
      (spec.kind != SubscriptionKind::kBandAlert ||
       !std::isfinite(spec.uncertainty_ceiling) ||
       spec.uncertainty_ceiling < 0.0)) {
    return Status::InvalidArgument(
        "uncertainty ceilings apply to band-alert subscriptions only");
  }
  if (spec.kind == SubscriptionKind::kAggregate) {
    if (aggregate_members.empty()) {
      return Status::InvalidArgument(
          "aggregate subscriptions need the aggregate's member sources");
    }
  } else if (!aggregate_members.empty()) {
    return Status::InvalidArgument(
        "only aggregate subscriptions carry member sources");
  }
  if (spec.kind >= SubscriptionKind::kCount) {
    return Status::InvalidArgument("unknown subscription kind");
  }
  return Status::OK();
}

}  // namespace

SubscriptionEngine::SubscriptionEngine(const ServeOptions& options)
    : options_(options) {
  if (options_.max_buffered_notifications == 0) {
    options_.max_buffered_notifications = 1;
  }
}

Result<double> SubscriptionEngine::CurrentValue(
    const Subscription& spec, const ServeAnswerSource& answers) const {
  if (spec.kind == SubscriptionKind::kAggregate) {
    return answers.AggregateValue(spec.aggregate_id);
  }
  if (spec.kind == SubscriptionKind::kFused) {
    return answers.FusedValue(spec.group_id);
  }
  return answers.SourceValue(spec.source_id, nullptr);
}

std::vector<SubscriptionEngine::PerSource>::iterator
SubscriptionEngine::SourcePosition(int source_id) {
  return std::lower_bound(
      sources_.begin(), sources_.end(), source_id,
      [](const PerSource& s, int id) { return s.source_id < id; });
}

SubscriptionEngine::PerSource* SubscriptionEngine::FindSource(int source_id) {
  auto it = SourcePosition(source_id);
  return it != sources_.end() && it->source_id == source_id ? &*it : nullptr;
}

SubscriptionEngine::PerSource& SubscriptionEngine::WatchSource(int source_id) {
  auto it = SourcePosition(source_id);
  if (it == sources_.end() || it->source_id != source_id) {
    it = sources_.insert(it, PerSource());
    it->source_id = source_id;
  }
  return *it;
}

void SubscriptionEngine::ReleaseIfUnwatched(PerSource* per_source) {
  if (per_source->Empty()) {
    sources_.erase(sources_.begin() + (per_source - sources_.data()));
  }
}

Status SubscriptionEngine::Attach(const SubscriptionState& state,
                                  const std::vector<int>& aggregate_members) {
  const Subscription& spec = state.spec;
  DKF_RETURN_IF_ERROR(ValidateSubscription(spec, aggregate_members));
  if (slot_of_.contains(spec.id)) {
    return Status::AlreadyExists(
        StrFormat("subscription %lld already registered",
                  static_cast<long long>(spec.id)));
  }
  const uint32_t slot = free_slots_.empty()
                            ? static_cast<uint32_t>(slots_.size())
                            : free_slots_.back();
  switch (spec.kind) {
    case SubscriptionKind::kPoint: {
      InsertSorted(&WatchSource(spec.source_id).point_subs, spec.id);
      break;
    }
    case SubscriptionKind::kBandAlert: {
      PerSource& per_source = WatchSource(spec.source_id);
      per_source.intervals.Insert(spec.id, slot, spec.lo, spec.hi);
      if (spec.uncertainty_ceiling > 0.0) {
        per_source.ceilings.push_back({spec.uncertainty_ceiling, slot});
        per_source.ceilings_dirty = true;
      }
      break;
    }
    case SubscriptionKind::kRangePredicate: {
      WatchSource(spec.source_id)
          .intervals.Insert(spec.id, slot, spec.lo, spec.hi);
      break;
    }
    case SubscriptionKind::kAggregate: {
      PerAggregate& per_aggregate = aggregates_[spec.aggregate_id];
      if (per_aggregate.subs.empty()) {
        per_aggregate.members = aggregate_members;
      } else if (per_aggregate.members != aggregate_members) {
        return Status::InvalidArgument(
            StrFormat("aggregate %d membership changed between subscriptions",
                      spec.aggregate_id));
      }
      InsertSorted(&per_aggregate.subs, spec.id);
      for (int member : aggregate_members) {
        std::vector<int>& watching = WatchSource(member).aggregates;
        auto it = std::lower_bound(watching.begin(), watching.end(),
                                   spec.aggregate_id);
        if (it == watching.end() || *it != spec.aggregate_id) {
          watching.insert(it, spec.aggregate_id);
        }
      }
      break;
    }
    case SubscriptionKind::kFused: {
      InsertSorted(&fused_[spec.group_id].subs, spec.id);
      break;
    }
    case SubscriptionKind::kCount:
      return Status::InvalidArgument("unknown subscription kind");
  }
  if (slot == slots_.size()) {
    slots_.push_back(state);
  } else {
    free_slots_.pop_back();
    slots_[slot] = state;
  }
  slot_of_.emplace(spec.id, slot);
  return Status::OK();
}

Status SubscriptionEngine::Subscribe(const Subscription& subscription,
                                     int64_t attach_step,
                                     const ServeAnswerSource& answers,
                                     const std::vector<int>& aggregate_members) {
  DKF_RETURN_IF_ERROR(ValidateSubscription(subscription, aggregate_members));
  if (slot_of_.contains(subscription.id)) {
    return Status::AlreadyExists(
        StrFormat("subscription %lld already registered",
                  static_cast<long long>(subscription.id)));
  }
  // Evaluate the attach-time state against the host's quiescent
  // between-ticks state — the same single engine state a checkpoint at
  // this boundary would capture, which is the snapshot-consistency
  // contract for mid-run attaches.
  const bool ceiling = subscription.kind == SubscriptionKind::kBandAlert &&
                       subscription.uncertainty_ceiling > 0.0;
  double uncertainty = 0.0;
  auto value_or =
      ceiling ? answers.SourceValue(subscription.source_id, &uncertainty)
              : CurrentValue(subscription, answers);
  if (!value_or.ok()) return value_or.status();
  const double value = value_or.value();

  SubscriptionState state;
  state.spec = subscription;
  const bool interval = subscription.kind == SubscriptionKind::kBandAlert ||
                        subscription.kind == SubscriptionKind::kRangePredicate;
  if (interval) state.inside = Contains(subscription, value);
  if (ceiling) state.fired = uncertainty > subscription.uncertainty_ceiling;
  DKF_RETURN_IF_ERROR(Attach(state, aggregate_members));

  // Prime the value caches for newly watched streams, so the next
  // EndTick diffs against this attach-time state.
  if (subscription.kind == SubscriptionKind::kAggregate) {
    PerAggregate& per_aggregate = aggregates_.at(subscription.aggregate_id);
    if (!per_aggregate.has_value) {
      per_aggregate.last_value = value;
      per_aggregate.has_value = true;
    }
    for (int member : aggregate_members) {
      PerSource& per_source = *FindSource(member);
      if (per_source.has_value) continue;
      auto member_or = answers.SourceValue(member, nullptr);
      if (!member_or.ok()) return member_or.status();
      per_source.last_value = member_or.value();
      per_source.has_value = true;
    }
  } else if (subscription.kind == SubscriptionKind::kFused) {
    PerFused& per_fused = fused_.at(subscription.group_id);
    if (!per_fused.has_value) {
      per_fused.last_value = value;
      per_fused.has_value = true;
    }
  } else {
    PerSource& per_source = *FindSource(subscription.source_id);
    if (!per_source.has_value) {
      per_source.last_value = value;
      per_source.has_value = true;
    }
  }

  const int32_t key =
      subscription.kind == SubscriptionKind::kAggregate
          ? AggregateSourceKey(subscription.aggregate_id)
          : (subscription.kind == SubscriptionKind::kFused
                 ? FusedSourceKey(subscription.group_id)
                 : subscription.source_id);
  DKF_TRACE(sink_, attach_step, key, TraceEventKind::kSubscribe,
            TraceActor::kServe, subscription.lo, subscription.hi,
            subscription.id);
  NotificationBatch batch;
  batch.step = attach_step;
  PushNotification(&batch.notifications, attach_step, key, subscription.id,
                   NotificationKind::kInitial, value,
                   interval ? (state.inside ? 1.0 : 0.0) : 0.0);
  AppendBatch(std::move(batch));
  return Status::OK();
}

Status SubscriptionEngine::ImportSubscription(
    const SubscriptionState& state,
    const std::vector<int>& aggregate_members) {
  return Attach(state, aggregate_members);
}

Status SubscriptionEngine::Unsubscribe(int64_t subscription_id) {
  auto it = slot_of_.find(subscription_id);
  if (it == slot_of_.end()) {
    return Status::NotFound(
        StrFormat("subscription %lld not registered",
                  static_cast<long long>(subscription_id)));
  }
  const uint32_t slot = it->second;
  const Subscription& spec = slots_[slot].spec;
  if (spec.kind == SubscriptionKind::kAggregate) {
    PerAggregate& per_aggregate = aggregates_.at(spec.aggregate_id);
    EraseSorted(&per_aggregate.subs, subscription_id);
    if (per_aggregate.subs.empty()) {
      for (int member : per_aggregate.members) {
        PerSource* per_source = FindSource(member);
        if (per_source == nullptr) continue;
        std::vector<int>& watching = per_source->aggregates;
        auto watch_it = std::lower_bound(watching.begin(), watching.end(),
                                         spec.aggregate_id);
        if (watch_it != watching.end() && *watch_it == spec.aggregate_id) {
          watching.erase(watch_it);
        }
        ReleaseIfUnwatched(per_source);
      }
      aggregates_.erase(spec.aggregate_id);
    }
  } else if (spec.kind == SubscriptionKind::kFused) {
    auto fused_it = fused_.find(spec.group_id);
    if (fused_it != fused_.end()) {
      EraseSorted(&fused_it->second.subs, subscription_id);
      if (fused_it->second.subs.empty()) fused_.erase(fused_it);
    }
  } else if (PerSource* per_source = FindSource(spec.source_id)) {
    switch (spec.kind) {
      case SubscriptionKind::kPoint:
        EraseSorted(&per_source->point_subs, subscription_id);
        break;
      case SubscriptionKind::kBandAlert:
        per_source->intervals.Erase(subscription_id, spec.lo, spec.hi);
        if (spec.uncertainty_ceiling > 0.0) {
          std::erase_if(per_source->ceilings, [&](const Ceiling& entry) {
            return entry.slot == slot;
          });
          per_source->ceilings_dirty = true;
        }
        break;
      case SubscriptionKind::kRangePredicate:
        per_source->intervals.Erase(subscription_id, spec.lo, spec.hi);
        break;
      default:
        break;
    }
    ReleaseIfUnwatched(per_source);
  }
  slots_[slot] = SubscriptionState();
  free_slots_.push_back(slot);
  slot_of_.erase(it);
  return Status::OK();
}

void SubscriptionEngine::RebuildCeilings(PerSource& per_source) {
  std::sort(per_source.ceilings.begin(), per_source.ceilings.end(),
            [&](const Ceiling& a, const Ceiling& b) {
              if (a.ceiling != b.ceiling) return a.ceiling < b.ceiling;
              return slots_[a.slot].spec.id < slots_[b.slot].spec.id;
            });
  per_source.ceilings_fired = 0;
  for (const Ceiling& entry : per_source.ceilings) {
    if (slots_[entry.slot].fired) ++per_source.ceilings_fired;
  }
  per_source.ceilings_dirty = false;
}

void SubscriptionEngine::PushNotification(std::vector<Notification>* out,
                                          int64_t step, int32_t source_key,
                                          int64_t subscription_id,
                                          NotificationKind kind, double value,
                                          double aux) {
  Notification notification;
  notification.step = step;
  notification.source_id = source_key;
  notification.subscription_id = subscription_id;
  notification.kind = kind;
  notification.value = value;
  notification.aux = aux;
  out->push_back(notification);
  ++counters_.notifications;
  DKF_TRACE(sink_, step, source_key, TraceEventKind::kNotify,
            TraceActor::kServe, value, static_cast<double>(kind),
            subscription_id);
}

void SubscriptionEngine::AppendBatch(NotificationBatch batch) {
  if (batch.notifications.empty()) return;
  const int64_t now = batch.step;
  pending_notifications_ += batch.notifications.size();
  pending_.push_back(std::move(batch));
  while (pending_notifications_ > options_.max_buffered_notifications &&
         !pending_.empty()) {
    const NotificationBatch& oldest = pending_.front();
    const uint64_t evicted = oldest.notifications.size();
    counters_.dropped += static_cast<int64_t>(evicted);
    pending_notifications_ -= evicted;
    DKF_TRACE(sink_, now, std::numeric_limits<int32_t>::min(),
              TraceEventKind::kNotifyDrop, TraceActor::kServe,
              static_cast<double>(evicted), 0.0, oldest.step);
    pending_.pop_front();
  }
}

Status SubscriptionEngine::EndTick(int64_t step,
                                   const ServeAnswerSource& answers) {
  if (slot_of_.empty()) return Status::OK();
  std::vector<Notification> out;
  std::vector<int> dirty_aggregates;
  std::vector<uint32_t> changed;
  for (PerSource& per_source : sources_) {
    const int source_id = per_source.source_id;
    const bool has_ceilings = !per_source.ceilings.empty();
    double uncertainty = 0.0;
    auto value_or =
        answers.SourceValue(source_id, has_ceilings ? &uncertainty : nullptr);
    if (!value_or.ok()) return value_or.status();
    const double value = value_or.value();
    const double previous =
        per_source.has_value ? per_source.last_value : value;
    const bool moved = value != previous;

    // Point subscriptions: the answer every tick, by definition.
    for (int64_t id : per_source.point_subs) {
      ++counters_.touched;
      ++counters_.affected;
      PushNotification(&out, step, source_id, id, NotificationKind::kValue,
                       value, 0.0);
    }

    // Band / range predicates: only subscriptions whose membership the
    // move could have flipped are examined.
    if (moved && !per_source.intervals.empty()) {
      changed.clear();
      counters_.touched += static_cast<int64_t>(
          per_source.intervals.Changed(previous, value, &changed));
      for (uint32_t slot : changed) {
        SubscriptionState& state = slots_[slot];
        const bool now_inside = Contains(state.spec, value);
        if (now_inside == state.inside) continue;
        state.inside = now_inside;
        ++counters_.affected;
        if (state.spec.kind == SubscriptionKind::kBandAlert) {
          const double bound =
              value < state.spec.lo ? state.spec.lo : state.spec.hi;
          PushNotification(&out, step, source_id, state.spec.id,
                           now_inside ? NotificationKind::kBandEnter
                                      : NotificationKind::kBandExit,
                           value, now_inside ? 0.0 : bound);
        } else {
          PushNotification(&out, step, source_id, state.spec.id,
                           now_inside ? NotificationKind::kPredicateTrue
                                      : NotificationKind::kPredicateFalse,
                           value, now_inside ? 1.0 : 0.0);
        }
      }
    }

    // Uncertainty ceilings: variance grows while a link coasts and
    // collapses on corrections, so the sorted cursor moves a few slots
    // per tick — O(crossings), not O(watchers).
    if (has_ceilings) {
      if (per_source.ceilings_dirty) RebuildCeilings(per_source);
      std::vector<Ceiling>& ceilings = per_source.ceilings;
      size_t& fired = per_source.ceilings_fired;
      while (fired < ceilings.size() &&
             ceilings[fired].ceiling < uncertainty) {
        SubscriptionState& state = slots_[ceilings[fired].slot];
        state.fired = true;
        ++fired;
        ++counters_.touched;
        ++counters_.affected;
        PushNotification(&out, step, source_id, state.spec.id,
                         NotificationKind::kUncertaintyHigh, value,
                         uncertainty);
      }
      while (fired > 0 && ceilings[fired - 1].ceiling >= uncertainty) {
        --fired;
        SubscriptionState& state = slots_[ceilings[fired].slot];
        state.fired = false;
        ++counters_.touched;
        ++counters_.affected;
        PushNotification(&out, step, source_id, state.spec.id,
                         NotificationKind::kUncertaintyOk, value, uncertainty);
      }
    }

    if (moved) {
      dirty_aggregates.insert(dirty_aggregates.end(),
                              per_source.aggregates.begin(),
                              per_source.aggregates.end());
    }
    per_source.last_value = value;
    per_source.has_value = true;
  }

  // Aggregates: recomputed only when a member moved, and fanned out
  // only when the sum itself moved.
  std::sort(dirty_aggregates.begin(), dirty_aggregates.end());
  dirty_aggregates.erase(
      std::unique(dirty_aggregates.begin(), dirty_aggregates.end()),
      dirty_aggregates.end());
  for (int aggregate_id : dirty_aggregates) {
    PerAggregate& per_aggregate = aggregates_.at(aggregate_id);
    auto value_or = answers.AggregateValue(aggregate_id);
    if (!value_or.ok()) return value_or.status();
    const double value = value_or.value();
    if (per_aggregate.has_value && value == per_aggregate.last_value) {
      per_aggregate.last_value = value;
      continue;
    }
    per_aggregate.last_value = value;
    per_aggregate.has_value = true;
    for (int64_t id : per_aggregate.subs) {
      ++counters_.touched;
      ++counters_.affected;
      PushNotification(&out, step, AggregateSourceKey(aggregate_id), id,
                       NotificationKind::kAggregateUpdate, value, 0.0);
    }
  }

  // Fused groups: the posterior is one server-side filter, so reading it
  // is O(1) per watched group — fan out only when the answer moved.
  for (auto& [group_id, per_fused] : fused_) {
    auto value_or = answers.FusedValue(group_id);
    if (!value_or.ok()) return value_or.status();
    const double value = value_or.value();
    if (per_fused.has_value && value == per_fused.last_value) continue;
    per_fused.last_value = value;
    per_fused.has_value = true;
    for (int64_t id : per_fused.subs) {
      ++counters_.touched;
      ++counters_.affected;
      PushNotification(&out, step, FusedSourceKey(group_id), id,
                       NotificationKind::kFusedUpdate, value, 0.0);
    }
  }

  if (out.empty()) return Status::OK();
  std::stable_sort(out.begin(), out.end(), NotificationOrder);
  NotificationBatch batch;
  batch.step = step;
  batch.notifications = std::move(out);
  AppendBatch(std::move(batch));
  return Status::OK();
}

std::vector<NotificationBatch> SubscriptionEngine::Drain() {
  std::vector<NotificationBatch> drained(
      std::make_move_iterator(pending_.begin()),
      std::make_move_iterator(pending_.end()));
  if (!drained.empty()) drained_through_step_ = drained.back().step;
  pending_.clear();
  pending_notifications_ = 0;
  return drained;
}

ServeStats SubscriptionEngine::stats() const {
  ServeStats stats = counters_;
  stats.subscriptions = static_cast<int64_t>(slot_of_.size());
  return stats;
}

std::vector<SubscriptionState> SubscriptionEngine::ExportSubscriptions()
    const {
  std::vector<std::pair<int64_t, uint32_t>> order(slot_of_.begin(),
                                                  slot_of_.end());
  std::sort(order.begin(), order.end());
  std::vector<SubscriptionState> exported;
  exported.reserve(order.size());
  for (const auto& [id, slot] : order) exported.push_back(slots_[slot]);
  return exported;
}

void SubscriptionEngine::RestorePending(std::vector<NotificationBatch> batches,
                                        int64_t drained_through_step) {
  pending_.assign(std::make_move_iterator(batches.begin()),
                  std::make_move_iterator(batches.end()));
  pending_notifications_ = 0;
  for (const NotificationBatch& batch : pending_) {
    pending_notifications_ += batch.notifications.size();
  }
  drained_through_step_ = drained_through_step;
}

void SubscriptionEngine::RestoreStats(const ServeStats& stats) {
  counters_ = stats;
  counters_.subscriptions = 0;
}

Status SubscriptionEngine::RefreshCaches(const ServeAnswerSource& answers) {
  for (PerSource& per_source : sources_) {
    auto value_or = answers.SourceValue(per_source.source_id, nullptr);
    if (!value_or.ok()) return value_or.status();
    per_source.last_value = value_or.value();
    per_source.has_value = true;
  }
  for (auto& [aggregate_id, per_aggregate] : aggregates_) {
    auto value_or = answers.AggregateValue(aggregate_id);
    if (!value_or.ok()) return value_or.status();
    per_aggregate.last_value = value_or.value();
    per_aggregate.has_value = true;
  }
  for (auto& [group_id, per_fused] : fused_) {
    auto value_or = answers.FusedValue(group_id);
    if (!value_or.ok()) return value_or.status();
    per_fused.last_value = value_or.value();
    per_fused.has_value = true;
  }
  return Status::OK();
}

}  // namespace dkf
