// The library drives the same protocol two ways: the in-process DualLink
// (Figure 2 in code, the figure benches' driver) and the stream engine,
// whose shards run the message-passing SourceNode/Channel/ServerNode
// pipeline or, with the batched fleet on, its structure-of-arrays lanes.
// They must agree *exactly* — same transmissions on the same ticks, same
// server answers — at any shard count and with the fleet off or on, or
// the figure reproductions would depend on which path a bench happens to
// use. DualLink is the reference; the engine-based source report must
// reproduce its totals too.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/dual_link.h"
#include "core/suppression.h"
#include "dsms/message.h"
#include "models/model_factory.h"
#include "runtime/sharded_engine.h"
#include "runtime/source_report.h"

namespace dkf {
namespace {

constexpr int kSources = 8;
constexpr size_t kTicks = 1500;

StateModel LinearModel() {
  ModelNoise noise;
  noise.process_variance = 0.05;
  noise.measurement_variance = 0.05;
  return MakeLinearModel(1, 1.0, noise).value();
}

TimeSeries RandomWalk(size_t n, uint64_t seed) {
  Rng rng(seed);
  TimeSeries series(1);
  double value = 0.0;
  double drift = 0.4;
  for (size_t i = 0; i < n; ++i) {
    if (i % 250 == 0) drift = rng.Uniform(-1.5, 1.5);
    value += drift + rng.Gaussian(0.0, 0.5);
    EXPECT_TRUE(series.Append(static_cast<double>(i), value).ok());
  }
  return series;
}

DualLink MakeLink(double delta) {
  auto predictor = KalmanPredictor::Create(LinearModel()).value();
  DualLinkOptions options;
  options.delta = delta;
  return DualLink::Create(predictor, options).value();
}

struct Layout {
  int shards;
  bool fleet;
};

class PathEquivalenceTest : public ::testing::TestWithParam<Layout> {};

TEST_P(PathEquivalenceTest, EngineMatchesDualLinkTickForTick) {
  const Layout layout = GetParam();
  ShardedStreamEngineOptions options;
  options.num_shards = layout.shards;
  options.batched_fleet = layout.fleet;
  ShardedStreamEngine engine(options);

  std::vector<TimeSeries> streams;
  std::vector<DualLink> links;
  ReadingBatch batch;
  for (int id = 1; id <= kSources; ++id) {
    const double delta = 2.0 + 0.5 * (id % 3);
    streams.push_back(RandomWalk(kTicks, 76 + static_cast<uint64_t>(id)));
    links.push_back(MakeLink(delta));
    ASSERT_TRUE(engine.RegisterSource(id, LinearModel()).ok());
    ContinuousQuery query;
    query.id = id;
    query.source_id = id;
    query.precision = delta;
    ASSERT_TRUE(engine.SubmitQuery(query).ok());
    batch.ids.push_back(id);
    batch.values.push_back(Vector{0.0});
  }

  // A loss-free link charges a reading, a mirror step, and each update's
  // bytes; every term is an integer, so the running sum is exact.
  const EnergyModelOptions energy;
  Message update;
  update.payload = Vector(1);
  const int64_t update_bytes = static_cast<int64_t>(update.SizeBytes());
  const double update_energy =
      EnergyAccount::TransmissionCost(energy, update.SizeBytes());

  size_t max_resident = 0;
  for (size_t t = 0; t < kTicks; ++t) {
    for (size_t s = 0; s < streams.size(); ++s) {
      batch.values[s][0] = streams[s].value(t);
    }
    ASSERT_TRUE(engine.ProcessTick(batch).ok()) << "tick " << t;
    max_resident = std::max(max_resident, engine.fleet_resident_count());
    for (size_t s = 0; s < links.size(); ++s) {
      const int id = static_cast<int>(s) + 1;
      auto link_step = links[s].Step(batch.values[s]);
      ASSERT_TRUE(link_step.ok());
      ASSERT_EQ(link_step.value().server_value[0],
                engine.Answer(id).value()[0])
          << "tick " << t << " source " << id;
      const LinkStats& stats = links[s].stats();
      ASSERT_EQ(stats.updates_sent, engine.updates_sent(id).value())
          << "tick " << t << " source " << id;
      const SourceUsage usage = engine.source_usage(id).value();
      ASSERT_EQ(usage.readings, stats.ticks);
      ASSERT_EQ(usage.uplink_bytes, stats.updates_sent * update_bytes);
      ASSERT_EQ(usage.energy,
                static_cast<double>(stats.ticks) *
                        (energy.instructions_per_reading +
                         energy.instructions_per_filter_step) +
                    static_cast<double>(stats.updates_sent) * update_energy)
          << "tick " << t << " source " << id;
    }
  }
  // The fleet runs really went through the lanes.
  if (layout.fleet) {
    EXPECT_GT(max_resident, 0u);
  }
  EXPECT_FALSE(engine.source_usage(kSources + 1).ok());
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, PathEquivalenceTest,
    ::testing::Values(Layout{1, false}, Layout{4, false}, Layout{1, true},
                      Layout{4, true}),
    [](const ::testing::TestParamInfo<Layout>& info) {
      return std::to_string(info.param.shards) + "Shards" +
             (info.param.fleet ? "Fleet" : "PerSource");
    });

TEST(PathEquivalenceReportTest, ReportMatchesDualLinkTotals) {
  const TimeSeries stream = RandomWalk(2500, 78);
  const double delta = 3.0;

  DualLink link = MakeLink(delta);
  double error_sum = 0.0;
  double error_max = 0.0;
  for (size_t i = 0; i < stream.size(); ++i) {
    const Vector reading{stream.value(i)};
    auto step = link.Step(reading);
    ASSERT_TRUE(step.ok());
    const double err =
        Deviation(step.value().server_value, reading, DeviationNorm::kL1);
    error_sum += err;
    error_max = std::max(error_max, err);
  }

  ReportSource source;
  source.data = stream;
  source.model = LinearModel();
  source.query.source_id = 1;
  source.query.precision = delta;
  const SourceReport report = RunSourceReports({source}).value()[0];

  EXPECT_EQ(report.updates_sent, link.stats().updates_sent);
  EXPECT_EQ(report.readings, link.stats().ticks);
  EXPECT_EQ(report.update_percentage, link.stats().UpdatePercentage());
  EXPECT_EQ(report.avg_error,
            error_sum / static_cast<double>(link.stats().ticks));
  EXPECT_EQ(report.max_error, error_max);
}

}  // namespace
}  // namespace dkf
