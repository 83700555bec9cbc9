// Vehicle tracking (paper Example 1, §5.1): a moving object reports its
// 2-D position over a simulated sensor network. A continuous query with
// a precision constraint installs the dual filters; the stream engine
// measures communication and energy, comparing model choices.

#include <cstdio>

#include "common/string_util.h"
#include "common/table.h"
#include "models/model_factory.h"
#include "query/registry.h"
#include "runtime/source_report.h"
#include "streamgen/trajectory_generator.h"

int main() {
  using namespace dkf;

  // The user's continuous query: "track vehicle 1's position within 3
  // units".
  QueryRegistry registry;
  ContinuousQuery query;
  query.id = 1;
  query.source_id = 1;
  query.precision = 3.0;
  query.description = "vehicle 1 position within 3 units";
  if (!registry.AddQuery(query).ok()) return 1;
  const double delta = registry.EffectiveDelta(1).value();

  // Paper-scale trajectory (4000 samples @ 100 ms).
  auto data_or = GenerateTrajectory(TrajectoryOptions{});
  if (!data_or.ok()) return 1;
  const TimeSeries& observed = data_or.value().observed;

  // Paper §4.1 noise setup for the moving-object models.
  ModelNoise linear_noise;
  linear_noise.process_variance = 0.05;
  linear_noise.measurement_variance = 0.05;
  ModelNoise constant_noise;  // adopt-the-value configuration
  constant_noise.process_variance = 10.0;
  constant_noise.measurement_variance = 0.05;

  AsciiTable table({"model", "% updates", "avg |dx|+|dy|", "bytes sent",
                    "energy (Minstr)", "vs send-all"});
  struct Candidate {
    const char* name;
    StateModel model;
  };
  const Candidate candidates[] = {
      {"constant-KF (caching-like)",
       MakeConstantModel(2, constant_noise).value()},
      {"linear-KF (paper's pick)",
       MakeLinearModel(2, 0.1, linear_noise).value()},
      {"jerk-KF (3rd order)",
       MakePolynomialModel(2, 3, 0.1, linear_noise).value()},
  };
  for (const Candidate& candidate : candidates) {
    ReportSource source;
    source.data = observed;
    source.model = candidate.model;
    source.query = query;
    auto reports_or = RunSourceReports({source});
    if (!reports_or.ok()) return 1;
    const SourceReport& report = reports_or.value()[0];
    table.AddRow(
        {candidate.name, StrFormat("%.1f", report.update_percentage),
         StrFormat("%.2f", report.avg_error),
         StrFormat("%lld", static_cast<long long>(report.bytes_sent)),
         StrFormat("%.2f", report.energy_spent / 1e6),
         StrFormat("-%.1f%%", 100.0 * (1.0 - report.energy_spent /
                                                 report.energy_send_all))});
  }

  std::printf("Vehicle tracking under query \"%s\" (delta = %.1f)\n\n",
              query.description.c_str(), delta);
  table.Print();
  std::printf(
      "\nThe linear model rides the straight segments for free and only "
      "pays at maneuvers; higher-order models buy little here because the "
      "trajectory really is piecewise linear.\n");
  return 0;
}
