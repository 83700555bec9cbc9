// Unit tests for the serving front-end in isolation: subscription
// validation, the fan-out index (point lists, interval index,
// uncertainty cursor, aggregate members), delivery-order and batching
// semantics, backpressure eviction, and the checkpoint hooks. The
// engine is driven against a fake answer source so every notification
// is hand-checkable.

#include <algorithm>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/string_util.h"
#include "serve/interval_index.h"
#include "serve/subscription.h"
#include "serve/subscription_engine.h"

namespace dkf {
namespace {

class FakeAnswers final : public ServeAnswerSource {
 public:
  Result<double> SourceValue(int source_id, double* variance) const override {
    auto it = values.find(source_id);
    if (it == values.end()) {
      return Status::NotFound(StrFormat("source %d", source_id));
    }
    if (variance != nullptr) {
      auto variance_it = variances.find(source_id);
      *variance = variance_it == variances.end() ? 0.0 : variance_it->second;
    }
    return it->second;
  }

  Result<double> AggregateValue(int aggregate_id) const override {
    auto it = aggregates.find(aggregate_id);
    if (it == aggregates.end()) {
      return Status::NotFound(StrFormat("aggregate %d", aggregate_id));
    }
    return it->second;
  }

  std::map<int, double> values;
  std::map<int, double> variances;
  std::map<int, double> aggregates;
};

Subscription MakePoint(int64_t id, int source_id) {
  Subscription sub;
  sub.id = id;
  sub.kind = SubscriptionKind::kPoint;
  sub.source_id = source_id;
  return sub;
}

Subscription MakeBand(int64_t id, int source_id, double lo, double hi,
                      double ceiling = 0.0) {
  Subscription sub;
  sub.id = id;
  sub.kind = SubscriptionKind::kBandAlert;
  sub.source_id = source_id;
  sub.lo = lo;
  sub.hi = hi;
  sub.uncertainty_ceiling = ceiling;
  return sub;
}

Subscription MakeRange(int64_t id, int source_id, double lo, double hi) {
  Subscription sub;
  sub.id = id;
  sub.kind = SubscriptionKind::kRangePredicate;
  sub.source_id = source_id;
  sub.lo = lo;
  sub.hi = hi;
  return sub;
}

Subscription MakeAggregateSub(int64_t id, int aggregate_id) {
  Subscription sub;
  sub.id = id;
  sub.kind = SubscriptionKind::kAggregate;
  sub.aggregate_id = aggregate_id;
  return sub;
}

/// Flattens the drained batches into formatted lines for compact
/// assertions.
std::vector<std::string> Lines(const std::vector<NotificationBatch>& batches) {
  std::vector<std::string> lines;
  for (const NotificationBatch& batch : batches) {
    for (const Notification& notification : batch.notifications) {
      lines.push_back(FormatNotification(notification));
    }
  }
  return lines;
}

TEST(SubscriptionValidationTest, RejectsMalformedSubscriptions) {
  SubscriptionEngine engine;
  FakeAnswers answers;
  answers.values[1] = 0.0;
  answers.aggregates[7] = 0.0;

  EXPECT_EQ(engine.Subscribe(MakePoint(-1, 1), 0, answers).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.Subscribe(MakePoint(1, -3), 0, answers).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.Subscribe(MakeBand(1, 1, 2.0, -2.0), 0, answers).code(),
            StatusCode::kInvalidArgument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(engine.Subscribe(MakeBand(1, 1, nan, 1.0), 0, answers).code(),
            StatusCode::kInvalidArgument);

  Subscription ceiling_on_point = MakePoint(1, 1);
  ceiling_on_point.uncertainty_ceiling = 0.5;
  EXPECT_EQ(engine.Subscribe(ceiling_on_point, 0, answers).code(),
            StatusCode::kInvalidArgument);

  EXPECT_EQ(engine.Subscribe(MakeAggregateSub(1, 7), 0, answers).code(),
            StatusCode::kInvalidArgument);  // no member sources
  EXPECT_EQ(engine.Subscribe(MakePoint(1, 1), 0, answers, {1, 2}).code(),
            StatusCode::kInvalidArgument);  // members on a point sub

  Subscription bad_kind = MakePoint(1, 1);
  bad_kind.kind = SubscriptionKind::kCount;
  EXPECT_EQ(engine.Subscribe(bad_kind, 0, answers).code(),
            StatusCode::kInvalidArgument);

  ASSERT_TRUE(engine.Subscribe(MakePoint(1, 1), 0, answers).ok());
  EXPECT_EQ(engine.Subscribe(MakePoint(1, 1), 0, answers).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(engine.num_subscriptions(), 1u);
}

TEST(SubscriptionEngineTest, PointSubscriptionDeliversEveryTick) {
  SubscriptionEngine engine;
  FakeAnswers answers;
  answers.values[4] = 1.5;
  ASSERT_TRUE(engine.Subscribe(MakePoint(10, 4), 0, answers).ok());

  ASSERT_TRUE(engine.EndTick(0, answers).ok());  // unchanged answer
  ASSERT_TRUE(engine.EndTick(1, answers).ok());  // still delivers

  const std::vector<std::string> lines = Lines(engine.Drain());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "0 4 10 initial 1.5 0");
  EXPECT_EQ(lines[1], "0 4 10 value 1.5 0");
  EXPECT_EQ(lines[2], "1 4 10 value 1.5 0");
  EXPECT_EQ(engine.drained_through_step(), 1);
  EXPECT_TRUE(engine.pending().empty());
}

TEST(SubscriptionEngineTest, BandAlertFiresOnExitAndClearsOnReentry) {
  SubscriptionEngine engine;
  FakeAnswers answers;
  answers.values[2] = 0.0;
  ASSERT_TRUE(engine.Subscribe(MakeBand(5, 2, -1.0, 1.0), 3, answers).ok());

  answers.values[2] = 2.5;  // exit above
  ASSERT_TRUE(engine.EndTick(3, answers).ok());
  answers.values[2] = 2.6;  // still outside: no flip, no notification
  ASSERT_TRUE(engine.EndTick(4, answers).ok());
  answers.values[2] = 0.5;  // re-enter
  ASSERT_TRUE(engine.EndTick(5, answers).ok());

  const std::vector<std::string> lines = Lines(engine.Drain());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "3 2 5 initial 0 1");      // attached inside the band
  EXPECT_EQ(lines[1], "3 2 5 band_exit 2.5 1");  // aux = violated bound (hi)
  EXPECT_EQ(lines[2], "5 2 5 band_enter 0.5 0");
  const ServeStats stats = engine.stats();
  EXPECT_EQ(stats.notifications, 3);
  EXPECT_GE(stats.touched, stats.affected);
}

TEST(SubscriptionEngineTest, UncertaintyCeilingLatchesAndClears) {
  SubscriptionEngine engine;
  FakeAnswers answers;
  answers.values[1] = 0.0;
  answers.variances[1] = 0.5;
  ASSERT_TRUE(
      engine.Subscribe(MakeBand(8, 1, -10.0, 10.0, 1.0), 0, answers).ok());

  answers.variances[1] = 2.0;  // crosses the ceiling
  ASSERT_TRUE(engine.EndTick(0, answers).ok());
  answers.variances[1] = 2.5;  // still high: latched, no repeat
  ASSERT_TRUE(engine.EndTick(1, answers).ok());
  answers.variances[1] = 1.0;  // ceiling >= variance clears (strict fire)
  ASSERT_TRUE(engine.EndTick(2, answers).ok());

  const std::vector<std::string> lines = Lines(engine.Drain());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "0 1 8 initial 0 1");
  EXPECT_EQ(lines[1], "0 1 8 uncertainty_high 0 2");
  EXPECT_EQ(lines[2], "2 1 8 uncertainty_ok 0 1");
}

TEST(SubscriptionEngineTest, RangePredicateNotifiesOnEachFlip) {
  SubscriptionEngine engine;
  FakeAnswers answers;
  answers.values[3] = 5.0;
  ASSERT_TRUE(engine.Subscribe(MakeRange(2, 3, 0.0, 10.0), 0, answers).ok());

  answers.values[3] = 12.0;
  ASSERT_TRUE(engine.EndTick(0, answers).ok());
  answers.values[3] = 7.0;
  ASSERT_TRUE(engine.EndTick(1, answers).ok());

  const std::vector<std::string> lines = Lines(engine.Drain());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "0 3 2 initial 5 1");
  EXPECT_EQ(lines[1], "0 3 2 predicate_false 12 0");
  EXPECT_EQ(lines[2], "1 3 2 predicate_true 7 1");
}

TEST(SubscriptionEngineTest, AggregateFansOutOnlyWhenSumMoves) {
  SubscriptionEngine engine;
  FakeAnswers answers;
  answers.values[1] = 1.0;
  answers.values[2] = 2.0;
  answers.aggregates[7] = 3.0;
  ASSERT_TRUE(
      engine.Subscribe(MakeAggregateSub(20, 7), 0, answers, {1, 2}).ok());
  ASSERT_TRUE(
      engine.Subscribe(MakeAggregateSub(21, 7), 0, answers, {1, 2}).ok());
  // A third subscriber naming different members is refused.
  EXPECT_EQ(engine.Subscribe(MakeAggregateSub(22, 7), 0, answers, {1}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(engine.has_aggregate_subscriptions(7));

  // Members move but the sum is unchanged: recomputed, not delivered.
  answers.values[1] = 2.0;
  answers.values[2] = 1.0;
  ASSERT_TRUE(engine.EndTick(0, answers).ok());
  // Sum moves: every subscriber of the aggregate is notified.
  answers.values[1] = 3.0;
  answers.aggregates[7] = 4.0;
  ASSERT_TRUE(engine.EndTick(1, answers).ok());
  // No member moved: the aggregate is not even recomputed.
  ASSERT_TRUE(engine.EndTick(2, answers).ok());

  const std::vector<std::string> lines = Lines(engine.Drain());
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0], "0 -8 20 initial 3 0");  // key = -1 - aggregate_id
  EXPECT_EQ(lines[1], "0 -8 21 initial 3 0");
  EXPECT_EQ(lines[2], "1 -8 20 aggregate_update 4 0");
  EXPECT_EQ(lines[3], "1 -8 21 aggregate_update 4 0");
}

TEST(SubscriptionEngineTest, UnsubscribeStopsDeliveryAndCleansIndex) {
  SubscriptionEngine engine;
  FakeAnswers answers;
  answers.values[1] = 0.0;
  answers.aggregates[7] = 0.0;
  ASSERT_TRUE(engine.Subscribe(MakePoint(1, 1), 0, answers).ok());
  ASSERT_TRUE(
      engine.Subscribe(MakeBand(2, 1, -1.0, 1.0, 0.5), 0, answers).ok());
  ASSERT_TRUE(engine.Subscribe(MakeAggregateSub(3, 7), 0, answers, {1}).ok());
  EXPECT_EQ(engine.num_subscriptions(), 3u);

  ASSERT_TRUE(engine.Unsubscribe(2).ok());
  ASSERT_TRUE(engine.Unsubscribe(3).ok());
  EXPECT_FALSE(engine.has_aggregate_subscriptions(7));
  EXPECT_EQ(engine.Unsubscribe(99).code(), StatusCode::kNotFound);

  (void)engine.Drain();
  answers.values[1] = 5.0;  // would have fired the band and the aggregate
  ASSERT_TRUE(engine.EndTick(0, answers).ok());
  const std::vector<std::string> lines = Lines(engine.Drain());
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "0 1 1 value 5 0");

  ASSERT_TRUE(engine.Unsubscribe(1).ok());
  EXPECT_EQ(engine.num_subscriptions(), 0u);
  ASSERT_TRUE(engine.EndTick(1, answers).ok());
  EXPECT_TRUE(engine.pending().empty());
}

TEST(SubscriptionEngineTest, BackpressureEvictsOldestBatchesWhole) {
  ServeOptions options;
  options.max_buffered_notifications = 3;
  SubscriptionEngine engine(options);
  FakeAnswers answers;
  answers.values[1] = 0.0;
  ASSERT_TRUE(engine.Subscribe(MakePoint(1, 1), 0, answers).ok());

  for (int64_t t = 0; t < 6; ++t) {
    answers.values[1] = static_cast<double>(t);
    ASSERT_TRUE(engine.EndTick(t, answers).ok());
  }
  // 7 notifications entered (1 initial + 6 ticks); the cap keeps the
  // newest 3 and counts the evicted 4.
  EXPECT_EQ(engine.pending().size(), 3u);
  EXPECT_EQ(engine.stats().dropped, 4);
  const std::vector<std::string> lines = Lines(engine.Drain());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "3 1 1 value 3 0");  // the oldest ticks are gone
  EXPECT_EQ(lines[2], "5 1 1 value 5 0");
}

TEST(SubscriptionEngineTest, CheckpointHooksReproduceDelivery) {
  SubscriptionEngine original;
  FakeAnswers answers;
  answers.values[1] = 0.0;
  answers.values[2] = 3.0;
  answers.variances[1] = 0.2;
  answers.aggregates[7] = 3.0;
  ASSERT_TRUE(
      original.Subscribe(MakeBand(1, 1, -1.0, 1.0, 0.5), 0, answers).ok());
  ASSERT_TRUE(original.Subscribe(MakeRange(2, 2, 0.0, 5.0), 0, answers).ok());
  ASSERT_TRUE(
      original.Subscribe(MakeAggregateSub(3, 7), 0, answers, {1, 2}).ok());

  answers.values[1] = 2.0;     // band exit
  answers.variances[1] = 0.9;  // ceiling crossed
  answers.aggregates[7] = 5.0;
  ASSERT_TRUE(original.EndTick(0, answers).ok());
  (void)original.Drain();
  answers.values[2] = 6.0;  // predicate flips false; aggregate moves
  answers.aggregates[7] = 8.0;
  ASSERT_TRUE(original.EndTick(1, answers).ok());

  // Clone via the checkpoint hooks at the tick-1 boundary.
  SubscriptionEngine restored(original.options());
  for (const SubscriptionState& state : original.ExportSubscriptions()) {
    const std::vector<int> members =
        state.spec.kind == SubscriptionKind::kAggregate ? std::vector<int>{1, 2}
                                                        : std::vector<int>{};
    ASSERT_TRUE(restored.ImportSubscription(state, members).ok());
  }
  restored.RestorePending(
      std::vector<NotificationBatch>(original.pending().begin(),
                                     original.pending().end()),
      original.drained_through_step());
  const ServeStats counters = original.stats();
  restored.RestoreStats(counters);
  ASSERT_TRUE(restored.RefreshCaches(answers).ok());
  EXPECT_EQ(restored.num_subscriptions(), 3u);
  EXPECT_EQ(restored.drained_through_step(), original.drained_through_step());
  EXPECT_EQ(restored.stats().notifications, counters.notifications);

  // Both copies must now deliver identically, including the band
  // re-entry diff against the restored caches and the ceiling latch.
  answers.values[1] = 0.5;
  answers.variances[1] = 0.1;
  answers.aggregates[7] = 6.5;
  ASSERT_TRUE(original.EndTick(2, answers).ok());
  ASSERT_TRUE(restored.EndTick(2, answers).ok());
  const std::vector<std::string> original_lines = Lines(original.Drain());
  const std::vector<std::string> restored_lines = Lines(restored.Drain());
  EXPECT_EQ(original_lines, restored_lines);
  EXPECT_GE(original_lines.size(), 4u);
}

TEST(IntervalIndexTest, ChangedReturnsExactlyTheFlippedIntervals) {
  // Subscription ids 1, 2, 3 live in slots that differ from the ids (and
  // from their order), so the test sees that queries return slots.
  constexpr uint32_t kSlot1 = 7;
  constexpr uint32_t kSlot2 = 0;
  constexpr uint32_t kSlot3 = 4;
  IntervalIndex index;
  EXPECT_TRUE(index.empty());
  index.Insert(1, kSlot1, 0.0, 1.0);
  index.Insert(2, kSlot2, 2.0, 3.0);
  index.Insert(3, kSlot3, 0.0, 5.0);
  EXPECT_FALSE(index.empty());
  EXPECT_EQ(index.size(), 3u);

  std::vector<uint32_t> changed;
  index.Changed(-1.0, 0.5, &changed);  // enters [0,1] and [0,5]
  EXPECT_EQ(changed, (std::vector<uint32_t>{kSlot1, kSlot3}));
  changed.clear();
  index.Changed(0.5, 2.5, &changed);  // leaves [0,1], enters [2,3]
  EXPECT_EQ(changed, (std::vector<uint32_t>{kSlot1, kSlot2}));
  changed.clear();
  const size_t scanned = index.Changed(2.1, 2.9, &changed);  // inside both
  EXPECT_TRUE(changed.empty());
  EXPECT_EQ(scanned, 0u);

  index.Erase(2, 2.0, 3.0);
  changed.clear();
  index.Changed(0.5, 2.5, &changed);
  EXPECT_EQ(changed, (std::vector<uint32_t>{kSlot1}));
  index.Erase(1, 0.0, 1.0);
  index.Erase(3, 0.0, 5.0);
  EXPECT_TRUE(index.empty());
}

TEST(NotificationTest, FormatAndNames) {
  EXPECT_STREQ(SubscriptionKindName(SubscriptionKind::kBandAlert),
               "band_alert");
  EXPECT_STREQ(SubscriptionKindName(SubscriptionKind::kRangePredicate),
               "range_predicate");
  EXPECT_STREQ(SubscriptionKindName(SubscriptionKind::kCount), "unknown");
  EXPECT_STREQ(NotificationKindName(NotificationKind::kUncertaintyHigh),
               "uncertainty_high");
  EXPECT_STREQ(NotificationKindName(NotificationKind::kCount), "unknown");
  Notification notification;
  notification.step = 12;
  notification.source_id = -8;
  notification.subscription_id = 4;
  notification.kind = NotificationKind::kAggregateUpdate;
  notification.value = 2.5;
  notification.aux = 0.25;
  EXPECT_EQ(FormatNotification(notification),
            "12 -8 4 aggregate_update 2.5 0.25");
}

TEST(NotificationTest, MergeCoalescesAndOrdersAcrossStreams) {
  // Two per-engine streams with overlapping steps; the merge must
  // coalesce per step and order by (source_id, subscription_id), with
  // negative (aggregate) keys first.
  Notification a;
  a.step = 1;
  a.source_id = 5;
  a.subscription_id = 2;
  a.kind = NotificationKind::kValue;
  Notification b = a;
  b.source_id = 3;
  b.subscription_id = 9;
  Notification c = a;
  c.source_id = -2;
  c.subscription_id = 1;
  c.kind = NotificationKind::kAggregateUpdate;
  Notification d = a;
  d.step = 2;

  std::vector<NotificationBatch> stream1;
  stream1.push_back(NotificationBatch{1, {a}});
  stream1.push_back(NotificationBatch{2, {d}});
  std::vector<NotificationBatch> stream2;
  stream2.push_back(NotificationBatch{1, {c, b}});

  const std::vector<NotificationBatch> merged =
      MergeNotificationBatches({stream1, stream2});
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].step, 1);
  ASSERT_EQ(merged[0].notifications.size(), 3u);
  EXPECT_EQ(merged[0].notifications[0].source_id, -2);
  EXPECT_EQ(merged[0].notifications[1].source_id, 3);
  EXPECT_EQ(merged[0].notifications[2].source_id, 5);
  EXPECT_EQ(merged[1].step, 2);
  EXPECT_TRUE(MergeNotificationBatches({}).empty());
}

/// The merge's definition: group every batch by step, concatenate each
/// step's notifications in caller order, stable-sort by NotificationOrder.
std::vector<NotificationBatch> ReferenceMerge(
    const std::vector<std::vector<NotificationBatch>>& streams) {
  std::map<int64_t, std::vector<Notification>> by_step;
  for (const auto& stream : streams) {
    for (const NotificationBatch& batch : stream) {
      auto& bucket = by_step[batch.step];
      bucket.insert(bucket.end(), batch.notifications.begin(),
                    batch.notifications.end());
    }
  }
  std::vector<NotificationBatch> merged;
  for (auto& [step, notifications] : by_step) {
    std::stable_sort(notifications.begin(), notifications.end(),
                     NotificationOrder);
    merged.push_back(NotificationBatch{step, std::move(notifications)});
  }
  return merged;
}

TEST(NotificationTest, MergeEqualsStableSortOfConcatenation) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    // Each notification gets a distinct value so any reordering of equal
    // keys is visible.
    double serial = 0.0;
    auto make = [&](int64_t step, int32_t source, int64_t sub,
                    NotificationKind kind) {
      Notification n;
      n.step = step;
      n.source_id = source;
      n.subscription_id = sub;
      n.kind = kind;
      n.value = serial;
      serial += 1.0;
      return n;
    };
    const int num_streams = static_cast<int>(rng.UniformInt(0, 5));
    std::vector<std::vector<NotificationBatch>> streams(
        static_cast<size_t>(num_streams));
    for (auto& stream : streams) {
      if (rng.Uniform() < 0.2) continue;  // an empty stream
      int64_t step = rng.UniformInt(0, 2);
      const int batches = static_cast<int>(rng.UniformInt(1, 8));
      for (int b = 0; b < batches; ++b) {
        if (rng.Uniform() < 0.6) step += rng.UniformInt(1, 2);
        if (rng.Uniform() < 0.25) {
          // A setup burst: many one-notification batches of initials at
          // one step, keys in no particular order.
          const int burst = static_cast<int>(rng.UniformInt(1, 40));
          for (int k = 0; k < burst; ++k) {
            stream.push_back(NotificationBatch{
                step,
                {make(step, static_cast<int32_t>(rng.UniformInt(-3, 6)),
                      rng.UniformInt(0, 30), NotificationKind::kInitial)}});
          }
          continue;
        }
        // One tick's batch, in canonical order; some subscriptions fire
        // several kinds (equal keys, emission order kept).
        std::vector<Notification> tick;
        const int count = static_cast<int>(rng.UniformInt(1, 25));
        for (int k = 0; k < count; ++k) {
          const int32_t source = static_cast<int32_t>(rng.UniformInt(-3, 6));
          const int64_t sub = rng.UniformInt(0, 30);
          tick.push_back(make(step, source, sub, NotificationKind::kBandExit));
          if (rng.Uniform() < 0.3) {
            tick.push_back(
                make(step, source, sub, NotificationKind::kUncertaintyHigh));
          }
        }
        std::stable_sort(tick.begin(), tick.end(), NotificationOrder);
        stream.push_back(NotificationBatch{step, std::move(tick)});
      }
    }
    const std::vector<NotificationBatch> expected = ReferenceMerge(streams);
    EXPECT_EQ(MergeNotificationBatches(streams), expected) << "seed " << seed;
  }
}

}  // namespace
}  // namespace dkf
