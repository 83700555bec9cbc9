// Ablation A8: multiple queries and bandwidth-constrained precision
// allocation (§6 future-work item "tuning system parameters for multiple
// queries"). Three sources with different required precisions share an
// update budget; the allocator inflates precisions proportionally when
// the budget is tight, and the realized rates are validated by re-running
// each source through the stream engine at its allocated precision.

#include <cstdio>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "common/string_util.h"
#include "common/table.h"
#include "query/precision_allocation.h"
#include "runtime/source_report.h"

namespace {

using namespace dkf;
using namespace dkf::bench;

struct SourceSetup {
  int id;
  TimeSeries data;
  StateModel model;
  double required_precision;
  double reference_precision;
};

std::vector<SourceSetup> Sources() {
  std::vector<SourceSetup> sources;
  sources.push_back({1, StandardPowerLoad(), Example2LinearModel(), 40.0,
                     100.0});
  sources.push_back({2, StandardPowerLoad(), Example2SinusoidalModel(), 60.0,
                     100.0});
  sources.push_back({3, StandardHttpTraffic(), Example3LinearModel(), 40.0,
                     100.0});
  return sources;
}

double MeasuredRate(const SourceSetup& source, double delta) {
  ReportSource report_source;
  report_source.data = source.data;
  report_source.model = source.model;
  report_source.query.source_id = source.id;
  report_source.query.precision = delta;
  return RunSourceReports({report_source}).value()[0].update_percentage /
         100.0;
}

void PrintFigure() {
  std::printf(
      "Ablation A8: precision allocation for 3 sources under a shared "
      "update budget.\n\n");
  auto sources = Sources();

  // Calibrate each source at its reference precision.
  std::vector<SourceLoadEstimate> estimates;
  for (const auto& source : sources) {
    SourceLoadEstimate estimate;
    estimate.source_id = source.id;
    estimate.required_precision = source.required_precision;
    estimate.reference_precision = source.reference_precision;
    estimate.reference_rate =
        MeasuredRate(source, source.reference_precision);
    estimates.push_back(estimate);
  }

  AsciiTable table({"budget (upd/tick)", "inflation",
                    "allocated precisions", "predicted total",
                    "measured total"});
  for (double budget : {2.0, 0.6, 0.3, 0.15}) {
    const AllocationPlan plan = AllocatePrecision(estimates, budget).value();
    std::string precisions;
    double measured_total = 0.0;
    for (size_t i = 0; i < plan.allocations.size(); ++i) {
      if (i > 0) precisions += " / ";
      precisions +=
          StrFormat("%.0f", plan.allocations[i].allocated_precision);
      measured_total +=
          MeasuredRate(sources[i], plan.allocations[i].allocated_precision);
    }
    table.AddRow({StrFormat("%.2f", budget),
                  StrFormat("%.2f", plan.inflation), precisions,
                  StrFormat("%.3f", plan.predicted_total_rate),
                  StrFormat("%.3f", measured_total)});
  }
  table.Print();
  std::printf(
      "\nReading the table: a generous budget leaves the query-required "
      "precisions untouched (inflation 1.0); tight budgets degrade all "
      "queries proportionally, and the realized total rate tracks the "
      "allocator's 1/delta prediction.\n");
}

void BM_AllocationRound(benchmark::State& state) {
  std::vector<SourceLoadEstimate> estimates;
  for (int i = 0; i < 100; ++i) {
    SourceLoadEstimate estimate;
    estimate.source_id = i;
    estimate.required_precision = 1.0 + i;
    estimate.reference_rate = 0.2;
    estimate.reference_precision = 10.0;
    estimates.push_back(estimate);
  }
  for (auto _ : state) {
    auto plan = AllocatePrecision(estimates, 1.0);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_AllocationRound);

}  // namespace

int main(int argc, char** argv) {
  PrintFigure();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
