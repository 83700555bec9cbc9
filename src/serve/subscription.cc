#include "serve/subscription.h"

#include <algorithm>

#include "common/string_util.h"

namespace dkf {

namespace {

constexpr const char* kSubscriptionKindNames[static_cast<int>(
    SubscriptionKind::kCount)] = {
    "point",
    "band_alert",
    "range_predicate",
    "aggregate",
    "fused",
};

constexpr const char* kNotificationKindNames[static_cast<int>(
    NotificationKind::kCount)] = {
    "initial",
    "value",
    "band_exit",
    "band_enter",
    "uncertainty_high",
    "uncertainty_ok",
    "predicate_true",
    "predicate_false",
    "aggregate_update",
    "fused_update",
};

/// Stable-sorts `notifications` by NotificationOrder, exploiting that it
/// is a concatenation of sorted runs (one per engine batch): the natural
/// runs — maximal stretches no element of which sorts before its
/// predecessor — are merged pairwise with std::merge, which takes the
/// left run's element on ties, until one run is left. That is a stable
/// merge sort, so the result equals std::stable_sort of the input, in
/// O(n log runs) instead of O(n log n). `runs` and `buffer` are reused
/// work space.
void MergeRuns(std::vector<Notification>* notifications,
               std::vector<size_t>* runs, std::vector<Notification>* buffer) {
  std::vector<Notification>& v = *notifications;
  runs->assign(1, 0);
  for (size_t i = 1; i < v.size(); ++i) {
    if (NotificationOrder(v[i], v[i - 1])) runs->push_back(i);
  }
  runs->push_back(v.size());
  if (runs->size() <= 2) return;  // already one run
  buffer->resize(v.size());
  while (runs->size() > 2) {
    // Run k is [runs[k], runs[k + 1]); merge runs 2j and 2j + 1 in place
    // of the pair, carrying an odd last run over unchanged.
    size_t kept = 1;
    const size_t count = runs->size() - 1;
    for (size_t k = 0; k < count; k += 2) {
      const size_t lo = (*runs)[k];
      const size_t mid = (*runs)[k + 1];
      const size_t hi = k + 1 < count ? (*runs)[k + 2] : mid;
      std::merge(v.begin() + lo, v.begin() + mid, v.begin() + mid,
                 v.begin() + hi, buffer->begin() + lo, NotificationOrder);
      (*runs)[kept++] = hi;
    }
    runs->resize(kept);
    v.swap(*buffer);
  }
}

}  // namespace

const char* SubscriptionKindName(SubscriptionKind kind) {
  const int index = static_cast<int>(kind);
  if (index < 0 || index >= static_cast<int>(SubscriptionKind::kCount)) {
    return "unknown";
  }
  return kSubscriptionKindNames[index];
}

const char* NotificationKindName(NotificationKind kind) {
  const int index = static_cast<int>(kind);
  if (index < 0 || index >= static_cast<int>(NotificationKind::kCount)) {
    return "unknown";
  }
  return kNotificationKindNames[index];
}

std::string FormatNotification(const Notification& notification) {
  return StrFormat("%lld %d %lld %s %s %s",
                   static_cast<long long>(notification.step),
                   notification.source_id,
                   static_cast<long long>(notification.subscription_id),
                   NotificationKindName(notification.kind),
                   DoubleToString(notification.value).c_str(),
                   DoubleToString(notification.aux).c_str());
}

std::vector<NotificationBatch> MergeNotificationBatches(
    std::vector<std::vector<NotificationBatch>> streams) {
  // Every batch in caller order (stream by stream, oldest first), stably
  // grouped by step, so a step's batches stay in the order the
  // definition concatenates them in.
  std::vector<NotificationBatch*> batches;
  for (auto& stream : streams) {
    for (NotificationBatch& batch : stream) batches.push_back(&batch);
  }
  std::stable_sort(batches.begin(), batches.end(),
                   [](const NotificationBatch* a, const NotificationBatch* b) {
                     return a->step < b->step;
                   });
  std::vector<NotificationBatch> merged;
  std::vector<size_t> runs;
  std::vector<Notification> buffer;
  for (size_t first = 0; first < batches.size();) {
    size_t last = first + 1;
    const int64_t step = batches[first]->step;
    while (last < batches.size() && batches[last]->step == step) ++last;
    NotificationBatch out;
    out.step = step;
    out.notifications = std::move(batches[first]->notifications);
    for (size_t b = first + 1; b < last; ++b) {
      const std::vector<Notification>& more = batches[b]->notifications;
      out.notifications.insert(out.notifications.end(), more.begin(),
                               more.end());
    }
    MergeRuns(&out.notifications, &runs, &buffer);
    merged.push_back(std::move(out));
    first = last;
  }
  return merged;
}

}  // namespace dkf
