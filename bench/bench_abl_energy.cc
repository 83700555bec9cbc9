// Ablation A7: sensor energy accounting across the paper's cited range of
// transmit-bit-to-instruction cost ratios (220-2900, §1 [26, 27]). Runs
// the Example-1 trajectory through the stream engine at delta = 3 and
// compares the DKF node's energy (sensing + filtering + transmission)
// against a filterless send-every-reading node.

#include <cstdio>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "common/string_util.h"
#include "common/table.h"
#include "runtime/source_report.h"
#include "streamgen/trajectory_generator.h"

namespace {

using namespace dkf;
using namespace dkf::bench;

SourceReport RunWithRatio(double instructions_per_bit) {
  ReportSource source;
  source.data = StandardTrajectory();
  source.model = Example1LinearModel();
  source.query.source_id = 1;
  source.query.precision = 3.0;
  EnergyModelOptions energy;
  energy.instructions_per_bit = instructions_per_bit;
  return RunSourceReports({source}, energy).value()[0];
}

void PrintFigure() {
  std::printf(
      "Ablation A7: sensor energy, DKF vs send-all, across the paper's "
      "tx-bit/instruction cost ratios (Example 1, delta = 3).\n\n");
  AsciiTable table({"instr/bit ratio", "DKF energy (Minstr)",
                    "send-all energy (Minstr)", "saving"});
  for (double ratio : {220.0, 1000.0, 2900.0}) {
    const SourceReport report = RunWithRatio(ratio);
    table.AddRow(
        {StrFormat("%.0f", ratio),
         StrFormat("%.2f", report.energy_spent / 1e6),
         StrFormat("%.2f", report.energy_send_all / 1e6),
         StrFormat("%.1f%%", 100.0 * (1.0 - report.energy_spent /
                                                report.energy_send_all))});
  }
  table.Print();
  std::printf(
      "\nReading the table: the energy saving tracks the update "
      "suppression ratio almost exactly, because transmission dominates "
      "at every cited ratio — the filter's compute cost is noise (§1's "
      "premise).\n");
}

void BM_SimulatedSource(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunWithRatio(1000.0));
  }
}
BENCHMARK(BM_SimulatedSource);

}  // namespace

int main(int argc, char** argv) {
  PrintFigure();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
