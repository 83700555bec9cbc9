// Golden tests for the serving front-end: a canonical small run pins
// the exact notification stream (the format and delivery order are an
// API — any change must show up here as a reviewed golden update), the
// sharded engine's merged notification stream is bit-identical to the
// single shard's at every shard count — including a mid-run
// attach and an aggregate spanning shards — and the serve trace events
// replay into the same counters the serve stats report.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "models/model_factory.h"
#include "obs/trace.h"
#include "obs/trace_merge.h"
#include "runtime/sharded_engine.h"
#include "serve/subscription.h"

namespace dkf {
namespace {

StateModel ScalarModel(double process_variance = 0.05) {
  ModelNoise noise;
  noise.process_variance = process_variance;
  noise.measurement_variance = 0.05;
  return MakeLinearModel(1, 1.0, noise).value();
}

std::string Render(const std::vector<NotificationBatch>& batches) {
  std::string out;
  for (const NotificationBatch& batch : batches) {
    for (const Notification& notification : batch.notifications) {
      out += FormatNotification(notification);
      out += '\n';
    }
  }
  return out;
}

Subscription MakeSub(int64_t id, SubscriptionKind kind, int target, double lo,
                     double hi, double ceiling = 0.0) {
  Subscription sub;
  sub.id = id;
  sub.kind = kind;
  if (kind == SubscriptionKind::kAggregate) {
    sub.aggregate_id = target;
  } else {
    sub.source_id = target;
  }
  sub.lo = lo;
  sub.hi = hi;
  sub.uncertainty_ceiling = ceiling;
  return sub;
}

// --- 1. The pinned canonical run: one scalar source on a perfect
// --- channel with a step change at tick 4 (the same drive the trace
// --- golden pins), watched by a point and a band subscription.

TEST(ServeGoldenTest, CanonicalRunEmitsPinnedNotificationStream) {
  ShardedStreamEngineOptions options;
  options.protocol.heartbeat_interval = 3;
  ShardedStreamEngine engine(options);
  ASSERT_TRUE(engine.RegisterSource(1, ScalarModel()).ok());
  ContinuousQuery query;
  query.id = 1;
  query.source_id = 1;
  query.precision = 0.8;
  ASSERT_TRUE(engine.SubmitQuery(query).ok());
  ASSERT_TRUE(
      engine.Subscribe(MakeSub(1, SubscriptionKind::kPoint, 1, 0, 0)).ok());
  ASSERT_TRUE(
      engine.Subscribe(MakeSub(2, SubscriptionKind::kBandAlert, 1, 0.5, 3.0))
          .ok());

  const double readings[] = {0.0, 0.0, 0.0, 0.0, 2.5,
                             2.5, 2.5, 2.5, 2.5, 2.5};
  for (int64_t t = 0; t < 10; ++t) {
    ASSERT_TRUE(engine.ProcessTick({{1, Vector{readings[t]}}}).ok());
  }

  // One "<step> <source> <subscription> <kind> <value> <aux>" line per
  // notification; values are shortest-round-trip doubles, so this pins
  // the served answers (the server-side filter estimates, not the raw
  // readings) bit-for-bit: the attach-time initials at step 0 (answer
  // 0, outside the band), point deliveries every tick tracking the
  // server answer — frozen while updates are suppressed — and the band
  // entry when the step change's transmitted update pushes the answer
  // above 0.5 at tick 4. Same-step batches coalesce, so tick 0's value
  // delivery sorts between the two initials (subscription order).
  const std::string kGolden =
      "0 1 1 initial 0 0\n"
      "0 1 1 value 0 0\n"
      "0 1 2 initial 0 0\n"
      "1 1 1 value 0 0\n"
      "2 1 1 value 0 0\n"
      "3 1 1 value 0 0\n"
      "4 1 1 value 2.49995195633792 0\n"
      "4 1 2 band_enter 2.49995195633792 0\n"
      "5 1 1 value 2.9808690137597047 0\n"
      "6 1 1 value 2.502973965832685 0\n"
      "7 1 1 value 2.508031000195561 0\n"
      "8 1 1 value 2.5130880345584368 0\n"
      "9 1 1 value 2.5181450689213127 0\n";
  EXPECT_EQ(Render(engine.DrainNotifications()), kGolden);
  const ServeStats stats = engine.serve_stats();
  EXPECT_EQ(stats.subscriptions, 2);
  EXPECT_EQ(stats.dropped, 0);
  EXPECT_GE(stats.touched, stats.affected);
}

// --- 2. Shard invariance under a lossy channel, with an aggregate
// --- spanning shards and a mid-run attach.

constexpr int kNumSources = 9;
constexpr int kAggregateId = 100;
constexpr int kTicks = 160;
constexpr int kMidDrainTick = 60;

ChannelOptions LossyChannel() {
  ChannelOptions options;
  options.seed = 77;
  options.drop_probability = 0.25;
  return options;
}

ProtocolOptions ServeProtocol() {
  ProtocolOptions protocol;
  protocol.heartbeat_interval = 4;
  protocol.staleness_budget = 6;
  return protocol;
}

void InstallWorkload(ShardedStreamEngine& system) {
  for (int id = 1; id <= kNumSources; ++id) {
    ASSERT_TRUE(
        system.RegisterSource(id, ScalarModel(0.02 + 0.01 * (id % 3))).ok());
    ContinuousQuery query;
    query.id = id;
    query.source_id = id;
    query.precision = 1.0 + 0.5 * (id % 4);
    ASSERT_TRUE(system.SubmitQuery(query).ok());
  }
  AggregateQuery aggregate;
  aggregate.id = kAggregateId;
  aggregate.source_ids = {2, 5, 8};  // lands on distinct shards at 4+
  aggregate.precision = 2.0;
  ASSERT_TRUE(system.SubmitAggregateQuery(aggregate).ok());

  ASSERT_TRUE(
      system.Subscribe(MakeSub(1, SubscriptionKind::kPoint, 1, 0, 0)).ok());
  ASSERT_TRUE(
      system.Subscribe(MakeSub(2, SubscriptionKind::kBandAlert, 2, -2, 2, 0.5))
          .ok());
  ASSERT_TRUE(
      system.Subscribe(MakeSub(3, SubscriptionKind::kBandAlert, 3, -1.5, 1.5))
          .ok());
  ASSERT_TRUE(
      system.Subscribe(MakeSub(4, SubscriptionKind::kBandAlert, 7, 0, 3))
          .ok());
  ASSERT_TRUE(
      system.Subscribe(MakeSub(5, SubscriptionKind::kRangePredicate, 5, -1, 1))
          .ok());
  ASSERT_TRUE(
      system.Subscribe(
                MakeSub(6, SubscriptionKind::kAggregate, kAggregateId, 0, 0))
          .ok());
}

void Drive(ShardedStreamEngine& system, int from, int to,
           std::vector<double>* values) {
  Rng rng(19 + from);
  for (int t = from; t < to; ++t) {
    std::map<int, Vector> readings;
    for (int id = 1; id <= kNumSources; ++id) {
      (*values)[static_cast<size_t>(id)] += rng.Gaussian(0.04 * (id % 3), 0.7);
      readings[id] = Vector{(*values)[static_cast<size_t>(id)]};
    }
    ASSERT_TRUE(system.ProcessTick(readings).ok()) << "tick " << t;
  }
}

Subscription LateBand() {
  return MakeSub(7, SubscriptionKind::kBandAlert, 9, -3, 3);
}

TEST(ServeGoldenTest, NotificationStreamIsBitIdenticalAcrossShardCounts) {
  // Reference: the single-shard engine, drained mid-run (so batching
  // boundaries are exercised) with a subscription attached between the
  // two segments.
  ShardedStreamEngineOptions single_options;
  single_options.channel = LossyChannel();
  single_options.protocol = ServeProtocol();
  ShardedStreamEngine single(single_options);
  InstallWorkload(single);
  std::vector<double> single_values(kNumSources + 1, 0.0);
  Drive(single, 0, kMidDrainTick, &single_values);
  const std::string early = Render(single.DrainNotifications());
  ASSERT_TRUE(single.Subscribe(LateBand()).ok());
  Drive(single, kMidDrainTick, kTicks, &single_values);
  const std::string late = Render(single.DrainNotifications());
  ASSERT_FALSE(early.empty());
  ASSERT_FALSE(late.empty());
  const ServeStats reference_stats = single.serve_stats();
  EXPECT_GT(reference_stats.notifications, 0);
  EXPECT_EQ(reference_stats.dropped, 0);

  for (int shards : {2, 4, 8}) {
    ShardedStreamEngineOptions options;
    options.num_shards = shards;
    options.channel = LossyChannel();
    options.protocol = ServeProtocol();
    ShardedStreamEngine engine(options);
    InstallWorkload(engine);
    std::vector<double> values(kNumSources + 1, 0.0);
    Drive(engine, 0, kMidDrainTick, &values);
    EXPECT_EQ(Render(engine.DrainNotifications()), early)
        << "shards=" << shards;
    ASSERT_TRUE(engine.Subscribe(LateBand()).ok());
    Drive(engine, kMidDrainTick, kTicks, &values);
    EXPECT_EQ(Render(engine.DrainNotifications()), late)
        << "shards=" << shards;

    const ServeStats stats = engine.serve_stats();
    EXPECT_EQ(stats.notifications, reference_stats.notifications)
        << "shards=" << shards;
    EXPECT_EQ(stats.affected, reference_stats.affected)
        << "shards=" << shards;
    EXPECT_EQ(stats.dropped, 0) << "shards=" << shards;
    EXPECT_EQ(engine.num_subscriptions(), single.num_subscriptions());
  }
}

// --- 3. Serve trace events are wired into the observability layer and
// --- replay into counters consistent with the serve stats.

TEST(ServeGoldenTest, ServeTraceReplaysConsistentWithStats) {
#if !DKF_OBS_ENABLED
  GTEST_SKIP() << "observability compiled out (DKF_OBS=OFF)";
#endif
  ShardedStreamEngineOptions options;
  options.num_shards = 4;
  options.channel = LossyChannel();
  options.protocol = ServeProtocol();
  ShardedStreamEngine engine(options);
  ASSERT_TRUE(engine.EnableTracing().ok());
  InstallWorkload(engine);
  std::vector<double> values(kNumSources + 1, 0.0);
  Drive(engine, 0, 100, &values);

  const std::vector<TraceEvent> trace = engine.MergedTrace();
  int64_t subscribes = 0;
  int64_t notifies = 0;
  for (const TraceEvent& event : trace) {
    if (event.kind == TraceEventKind::kSubscribe) ++subscribes;
    if (event.kind == TraceEventKind::kNotify) ++notifies;
  }
  EXPECT_EQ(subscribes, 6);  // one per InstallWorkload subscription
  EXPECT_EQ(notifies, engine.serve_stats().notifications);

  MetricsRegistry replayed;
  ReplayTrace(trace, &replayed);
  EXPECT_EQ(replayed.counter("trace.subscribe"), subscribes);
  EXPECT_EQ(replayed.counter("trace.notify"), notifies);
  EXPECT_EQ(replayed.counter("trace.notify_drop"), 0);
}

}  // namespace
}  // namespace dkf
