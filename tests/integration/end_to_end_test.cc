#include <cmath>

#include <gtest/gtest.h>

#include "models/model_factory.h"
#include "query/precision_allocation.h"
#include "query/registry.h"
#include "runtime/source_report.h"
#include "streamgen/http_traffic_generator.h"
#include "streamgen/power_load_generator.h"
#include "streamgen/trajectory_generator.h"

namespace dkf {
namespace {

/// The full Figure-1 path: user queries register precision constraints,
/// the registry derives per-source deltas and smoothing, the stream
/// engine runs all three of the paper's scenarios side by side, and the
/// answers respect the constraints.
TEST(EndToEndTest, ThreeScenarioDsms) {
  // --- Queries.
  QueryRegistry registry;
  ContinuousQuery vehicle_query;
  vehicle_query.id = 1;
  vehicle_query.source_id = 1;
  vehicle_query.precision = 3.0;
  vehicle_query.description = "vehicle position within 3 units";
  ASSERT_TRUE(registry.AddQuery(vehicle_query).ok());

  ContinuousQuery load_query;
  load_query.id = 2;
  load_query.source_id = 2;
  load_query.precision = 120.0;
  ASSERT_TRUE(registry.AddQuery(load_query).ok());

  ContinuousQuery load_query_tighter;
  load_query_tighter.id = 3;
  load_query_tighter.source_id = 2;
  load_query_tighter.precision = 80.0;
  ASSERT_TRUE(registry.AddQuery(load_query_tighter).ok());

  ContinuousQuery traffic_query;
  traffic_query.id = 4;
  traffic_query.source_id = 3;
  traffic_query.precision = 25.0;
  traffic_query.smoothing_factor = 1e-7;
  ASSERT_TRUE(registry.AddQuery(traffic_query).ok());

  // --- Datasets.
  TrajectoryOptions trajectory_options;
  trajectory_options.num_points = 1200;
  auto trajectory_or = GenerateTrajectory(trajectory_options);
  ASSERT_TRUE(trajectory_or.ok());

  PowerLoadOptions load_options;
  load_options.num_points = 1200;
  auto load_or = GeneratePowerLoad(load_options);
  ASSERT_TRUE(load_or.ok());

  HttpTrafficOptions traffic_options;
  traffic_options.num_points = 1200;
  auto traffic_or = GenerateHttpTraffic(traffic_options);
  ASSERT_TRUE(traffic_or.ok());

  // --- Engine wiring driven by the registry.
  ModelNoise vehicle_noise;  // paper §4.1 defaults (0.05)
  ReportSource vehicle;
  vehicle.query.source_id = 1;
  vehicle.data = trajectory_or.value().observed;
  vehicle.model = MakeLinearModel(2, 0.1, vehicle_noise).value();
  vehicle.query.precision = registry.EffectiveDelta(1).value();

  ModelNoise load_noise;
  load_noise.process_variance = 25.0;
  load_noise.measurement_variance = 25.0;
  ReportSource load;
  load.query.source_id = 2;
  load.data = load_or.value();
  load.model = MakeLinearModel(1, 1.0, load_noise).value();
  load.query.precision = registry.EffectiveDelta(2).value();
  EXPECT_DOUBLE_EQ(load.query.precision, 80.0);  // tightest of the two queries

  ReportSource traffic;
  traffic.query.source_id = 3;
  traffic.data = traffic_or.value();
  traffic.model = MakeLinearModel(1, 1.0, load_noise).value();
  traffic.query.precision = registry.EffectiveDelta(3).value();
  traffic.query.smoothing_factor = *registry.EffectiveSmoothing(3).value();

  auto reports_or = RunSourceReports({vehicle, load, traffic});
  ASSERT_TRUE(reports_or.ok());
  const auto& reports = reports_or.value();
  ASSERT_EQ(reports.size(), 3u);

  for (const SourceReport& report : reports) {
    // Every source must be suppressing (not sending everything) and
    // keeping its tick-time answers reasonable relative to the precision.
    EXPECT_LT(report.update_percentage, 100.0) << "source " << report.id;
    EXPECT_GT(report.readings, 0) << "source " << report.id;
    EXPECT_GT(report.energy_send_all, report.energy_spent)
        << "source " << report.id;
  }
  // The vehicle error metric is |dx| + |dy| <= 2 * delta at tick time.
  EXPECT_LE(reports[0].max_error, 2.0 * vehicle.query.precision + 1.0);
  // Update ticks correct toward (not exactly onto) the reading, so the
  // max can exceed delta transiently; the average must respect it.
  EXPECT_LE(reports[1].avg_error, load.query.precision);
}

TEST(EndToEndTest, AllocationFeedsBackIntoDeltas) {
  // Calibrate per-source chattiness with a probe run, then let the
  // allocator pick deltas under a bandwidth budget and verify the
  // realized update rate honors it.
  PowerLoadOptions load_options;
  load_options.num_points = 1000;
  auto series_or = GeneratePowerLoad(load_options);
  ASSERT_TRUE(series_or.ok());

  ModelNoise noise;
  noise.process_variance = 1.0;
  noise.measurement_variance = 100.0;
  const StateModel model = MakeLinearModel(1, 1.0, noise).value();

  // Probe at a reference precision.
  ReportSource probe;
  probe.query.source_id = 1;
  probe.data = series_or.value();
  probe.model = model;
  probe.query.precision = 50.0;
  auto probe_reports_or = RunSourceReports({probe});
  ASSERT_TRUE(probe_reports_or.ok());
  const double probe_rate =
      probe_reports_or.value()[0].update_percentage / 100.0;

  SourceLoadEstimate estimate;
  estimate.source_id = 1;
  estimate.required_precision = 20.0;  // user asks for tight precision
  estimate.reference_rate = probe_rate;
  estimate.reference_precision = 50.0;

  // Budget below the predicted requirement forces inflation.
  const double predicted_required =
      std::min(1.0, probe_rate * 50.0 / 20.0);
  const double budget = predicted_required / 2.0;
  auto plan_or = AllocatePrecision({estimate}, budget);
  ASSERT_TRUE(plan_or.ok());
  EXPECT_GT(plan_or.value().inflation, 1.0);

  // Re-run at the allocated precision: the realized rate should be near
  // or below the budget (the 1/delta model is approximate, so allow 2x).
  ReportSource allocated = probe;
  allocated.query.precision =
      plan_or.value().allocations[0].allocated_precision;
  auto final_reports_or = RunSourceReports({allocated});
  ASSERT_TRUE(final_reports_or.ok());
  EXPECT_LT(final_reports_or.value()[0].update_percentage / 100.0,
            2.0 * budget);
}

}  // namespace
}  // namespace dkf
