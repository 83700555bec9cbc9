#include "runtime/source_report.h"

#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "models/model_factory.h"
#include "runtime/sharded_engine.h"

namespace dkf {
namespace {

StateModel LinearModel() {
  auto model_or = MakeLinearModel(1, 1.0, ModelNoise{});
  EXPECT_TRUE(model_or.ok());
  return model_or.value();
}

TimeSeries Ramp(size_t n, double slope) {
  TimeSeries series(1);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(
        series.Append(static_cast<double>(i), slope * static_cast<double>(i))
            .ok());
  }
  return series;
}

ReportSource RampSource(int id, size_t n, double slope, double delta) {
  ReportSource source;
  source.data = Ramp(n, slope);
  source.model = LinearModel();
  source.query.source_id = id;
  source.query.precision = delta;
  return source;
}

TimeSeries NoisyLevel(size_t n, uint64_t seed) {
  Rng rng(seed);
  TimeSeries series(1);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(series.Append(static_cast<double>(i),
                              50.0 + rng.Gaussian(0.0, 5.0))
                    .ok());
  }
  return series;
}

TEST(SourceReportTest, RejectsMalformedSources) {
  ReportSource wide = RampSource(1, 10, 1.0, 1.0);
  wide.model = MakeLinearModel(2, 1.0, ModelNoise{}).value();
  EXPECT_EQ(RunSourceReports({wide}).status().code(),
            StatusCode::kInvalidArgument);

  ReportSource empty = RampSource(1, 10, 1.0, 1.0);
  empty.data = TimeSeries(1);
  EXPECT_EQ(RunSourceReports({empty}).status().code(),
            StatusCode::kInvalidArgument);

  // The engine refuses what it cannot install: a non-positive precision,
  // or KF_c on a width-2 stream.
  ReportSource loose = RampSource(1, 10, 1.0, 0.0);
  EXPECT_FALSE(RunSourceReports({loose}).ok());
  ReportSource smoothed_wide;
  smoothed_wide.model = MakeLinearModel(2, 1.0, ModelNoise{}).value();
  smoothed_wide.data = TimeSeries(2);
  ASSERT_TRUE(smoothed_wide.data.Append(0.0, {1.0, 2.0}).ok());
  smoothed_wide.query.source_id = 1;
  smoothed_wide.query.smoothing_factor = 0.1;
  EXPECT_EQ(RunSourceReports({smoothed_wide}).status().code(),
            StatusCode::kInvalidArgument);
}

/// The status of registering a source, then a fusion group, on an engine
/// built with `channel`.
std::pair<Status, Status> RegisterOn(const ChannelOptions& channel) {
  ShardedStreamEngineOptions options;
  options.channel = channel;
  ShardedStreamEngine engine(options);
  FusionGroupConfig group;
  group.group_id = 1;
  group.model = LinearModel();
  group.member_ids = {10, 11};
  return {engine.RegisterSource(1, LinearModel()),
          engine.RegisterFusionGroup(group)};
}

TEST(SourceReportTest, RejectsBadChannelOptions) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<ChannelOptions> bad(11);
  bad[0].drop_probability = 1.0;
  bad[1].drop_probability = -0.1;
  bad[2].drop_probability = nan;
  bad[3].fault.gilbert_elliott = GilbertElliottLoss{1.5, 1.0, 0.0, 1.0};
  bad[4].fault.gilbert_elliott = GilbertElliottLoss{0.1, 1.0, nan, 1.0};
  bad[5].fault.ack_loss_probability = 2.0;
  bad[6].fault.corruption_probability = -1e-9;
  bad[7].fault.corruption_probability =
      std::numeric_limits<double>::infinity();
  bad[8].fault.delay = DelayModel{/*min_ticks=*/3, /*max_ticks=*/1};
  bad[9].fault.delay = DelayModel{/*min_ticks=*/-1, /*max_ticks=*/1};
  bad[10].fault.outages.push_back(OutageWindow{/*start=*/9, /*end=*/5});
  for (size_t i = 0; i < bad.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(ValidateChannelOptions(bad[i]).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(RunSourceReports({RampSource(1, 10, 1.0, 1.0)},
                               EnergyModelOptions(), bad[i])
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    // The engine takes the options unchecked but refuses to register
    // anything under them.
    const auto [source, group] = RegisterOn(bad[i]);
    EXPECT_EQ(source.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(group.code(), StatusCode::kInvalidArgument);
  }

  // The edges of every range are accepted.
  ChannelOptions edges;
  edges.drop_probability = 0.0;
  edges.fault.gilbert_elliott = GilbertElliottLoss{0.0, 1.0, 0.0, 1.0};
  edges.fault.ack_loss_probability = 1.0;
  edges.fault.corruption_probability = 0.0;
  edges.fault.delay = DelayModel{/*min_ticks=*/0, /*max_ticks=*/0};
  edges.fault.outages.push_back(OutageWindow{/*start=*/4, /*end=*/4});
  EXPECT_TRUE(ValidateChannelOptions(edges).ok());
  const auto [source, group] = RegisterOn(edges);
  EXPECT_TRUE(source.ok()) << source.message();
  EXPECT_TRUE(group.ok()) << group.message();
}

TEST(SourceReportTest, RampSourceSuppressesAlmostEverything) {
  auto reports_or = RunSourceReports({RampSource(1, 1000, 2.0, 2.0)});
  ASSERT_TRUE(reports_or.ok());
  ASSERT_EQ(reports_or.value().size(), 1u);
  const SourceReport& report = reports_or.value()[0];
  EXPECT_EQ(report.id, 1);
  EXPECT_EQ(report.readings, 1000);
  EXPECT_LT(report.update_percentage, 2.0);
  // Error bounds: a suppressed tick is within delta by the protocol.
  EXPECT_LE(report.avg_error, 2.0);
  EXPECT_LE(report.avg_error, report.max_error);
  EXPECT_GT(report.bytes_sent, 0);
}

TEST(SourceReportTest, MultipleSourcesIndependentDeltas) {
  // Same data, different precision widths: the tighter source must send
  // more updates, and each answer stays within its own width on average.
  Rng rng(41);
  TimeSeries noisy(1);
  double value = 0.0;
  for (size_t i = 0; i < 1500; ++i) {
    value += rng.Gaussian(0.2, 1.0);
    ASSERT_TRUE(noisy.Append(static_cast<double>(i), value).ok());
  }
  ReportSource tight;
  tight.data = noisy;
  tight.model = LinearModel();
  tight.query.source_id = 1;
  tight.query.precision = 1.0;
  ReportSource loose = tight;
  loose.query.source_id = 2;
  loose.query.precision = 8.0;

  auto reports_or = RunSourceReports({tight, loose});
  ASSERT_TRUE(reports_or.ok());
  const auto& reports = reports_or.value();
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].id, 1);
  EXPECT_EQ(reports[1].id, 2);
  EXPECT_GT(reports[0].updates_sent, reports[1].updates_sent);
  EXPECT_LE(reports[0].avg_error, 1.0);
  EXPECT_LE(reports[1].avg_error, 8.0);
  EXPECT_LT(reports[0].avg_error, reports[1].avg_error + 1.0);
}

TEST(SourceReportTest, EnergySavingsAgainstSendAll) {
  auto reports_or = RunSourceReports({RampSource(1, 2000, 2.0, 2.0)});
  ASSERT_TRUE(reports_or.ok());
  const SourceReport& report = reports_or.value()[0];
  // On a predictable stream the DKF node spends far less than a
  // send-everything node: the paper's energy argument (§1).
  EXPECT_LT(report.energy_spent, 0.1 * report.energy_send_all);
}

TEST(SourceReportTest, SmoothingReducesUpdatesOnNoisyStream) {
  const TimeSeries noisy = NoisyLevel(2000, 43);
  ReportSource raw;
  raw.data = noisy;
  raw.model = LinearModel();
  raw.query.source_id = 1;
  raw.query.precision = 3.0;
  ReportSource smoothed = raw;
  smoothed.query.source_id = 2;
  smoothed.query.smoothing_factor = 1e-7;

  auto reports_or = RunSourceReports({raw, smoothed});
  ASSERT_TRUE(reports_or.ok());
  const auto& reports = reports_or.value();
  EXPECT_LT(reports[1].updates_sent, reports[0].updates_sent / 2);
  // The smoothed answer is measured against KF_c's output, which the
  // protocol keeps it within delta of; against the raw spikes it would
  // be off by about the noise's mean absolute deviation (~4).
  EXPECT_LE(reports[1].avg_error, 3.0);
  EXPECT_LT(reports[1].avg_error, reports[0].avg_error);
}

TEST(SourceReportTest, UnequalLengthSources) {
  auto reports_or = RunSourceReports(
      {RampSource(1, 100, 1.0, 2.0), RampSource(2, 500, 1.0, 2.0)});
  ASSERT_TRUE(reports_or.ok());
  EXPECT_EQ(reports_or.value()[0].readings, 100);
  EXPECT_EQ(reports_or.value()[1].readings, 500);
}

TEST(SourceReportTest, LossyReportDoesNotDependOnOtherSources) {
  // Fault streams are per source, so a source's lossy report is the same
  // alone or beside another source.
  ChannelOptions channel;
  channel.drop_probability = 0.3;
  const ReportSource source = RampSource(7, 400, 1.5, 0.5);
  const SourceReport alone =
      RunSourceReports({source}, EnergyModelOptions(), channel).value()[0];
  const SourceReport paired =
      RunSourceReports({RampSource(3, 300, 2.0, 0.5), source},
                       EnergyModelOptions(), channel)
          .value()[1];
  EXPECT_EQ(alone.updates_sent, paired.updates_sent);
  EXPECT_EQ(alone.avg_error, paired.avg_error);
  EXPECT_EQ(alone.energy_spent, paired.energy_spent);
}

}  // namespace
}  // namespace dkf
