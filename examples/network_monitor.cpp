// Network monitoring (paper Example 3, §5.3): bursty HTTP packet counts
// with no visible trend. Demonstrates the KF_c smoothing stage and the
// user-facing sensitivity knob F: lower F means smoother query answers
// and fewer transmissions; the window-equivalent F reproduces a moving
// average without its memory cost.

#include <cstdio>

#include "common/string_util.h"
#include "common/table.h"
#include "core/moving_average.h"
#include "core/smoothing.h"
#include "dsms/source_node.h"
#include "metrics/metrics.h"
#include "models/model_factory.h"
#include "runtime/source_report.h"
#include "streamgen/http_traffic_generator.h"

int main() {
  using namespace dkf;

  auto series_or = GenerateHttpTraffic(HttpTrafficOptions{});
  if (!series_or.ok()) return 1;
  const TimeSeries& traffic = series_or.value();
  const double delta = 15.0;  // packets/bin the dashboard tolerates

  ModelNoise noise;
  noise.process_variance = 1.0;
  noise.measurement_variance = 100.0;
  const StateModel model = MakeLinearModel(1, 1.0, noise).value();

  AsciiTable table({"configuration", "% updates", "avg err vs smoothed",
                    "smoothed-vs-raw dev"});

  ReportSource source;
  source.data = traffic;
  source.model = model;
  source.query.source_id = 1;
  source.query.precision = delta;

  // No smoothing: the raw burstiness defeats prediction.
  {
    auto report = RunSourceReports({source}).value()[0];
    table.AddRow({"raw (no KF_c)",
                  StrFormat("%.1f", report.update_percentage),
                  StrFormat("%.2f", report.avg_error), "0.00"});
  }

  // Smoothed at several F values, including the MA(64)-equivalent. The
  // engine's KF_c runs at a fixed measurement variance; F is relative
  // to it.
  const double kfc_variance =
      SourceNodeOptions().smoothing_measurement_variance;
  const double f_ma64 = SmoothingFactorForWindow(64, kfc_variance);
  for (double f : {1e-7, f_ma64, 1e-1}) {
    source.query.smoothing_factor = f;
    auto report = RunSourceReports({source}).value()[0];
    const TimeSeries smoothed =
        SmoothSeriesKalman(traffic, f, kfc_variance).value();
    table.AddRow({StrFormat("KF_c, F = %.3g", f),
                  StrFormat("%.1f", report.update_percentage),
                  StrFormat("%.2f", report.avg_error),
                  StrFormat("%.2f",
                            SeriesMeanAbsDiff(smoothed, traffic).value())});
  }

  std::printf("HTTP traffic monitoring (delta = %.0f packets/bin)\n\n",
              delta);
  table.Print();

  std::printf(
      "\nF is the paper's fine-grain sensitivity control: F = %.3g makes "
      "KF_c equivalent to a 64-sample moving average — with O(1) state "
      "instead of a 64-entry window — and lowering F further trades "
      "fidelity to the raw spikes for bandwidth.\n",
      f_ma64);
  return 0;
}
