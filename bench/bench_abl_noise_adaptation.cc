// Ablation A2: sensitivity of the DKF to misspecified measurement-noise
// covariance R, and the recovery delivered by the innovation-based noise
// servo NoiseAdapter (§6 future-work item: "robustness of the KF when the
// statistics of the noise are not known"), driven the way the protocol
// drives it: OnCorrection before Correct, then InstallInto.

#include <cmath>
#include <cstdio>

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "common/string_util.h"
#include "common/table.h"
#include "filter/adaptive_noise.h"
#include "filter/kalman_filter.h"
#include "models/model_factory.h"

namespace {

using namespace dkf;

constexpr double kTrueNoiseStddev = 1.0;

/// Runs a constant-signal tracking task with the filter's R set to
/// `assumed_r`; optionally adapts Q/R online with the default servo
/// recipe. Returns steady-state mean absolute estimation error.
double RunTracking(double assumed_r, bool adapt) {
  ModelNoise noise;
  noise.process_variance = 1e-4;
  noise.measurement_variance = assumed_r;
  const StateModel model = MakeConstantModel(1, noise).value();
  auto filter = model.MakeFilter().value();

  AdaptiveNoiseConfig config;
  config.enabled = adapt;
  auto adapter = NoiseAdapter::Create(config, model).value();

  Rng rng(77);
  double err = 0.0;
  int count = 0;
  for (int i = 0; i < 4000; ++i) {
    (void)filter.Predict();
    const Vector z{5.0 + rng.Gaussian(0.0, kTrueNoiseStddev)};
    (void)adapter.OnCorrection(filter, z, i);
    (void)filter.Correct(z);
    (void)adapter.InstallInto(&filter);
    if (i > 2000) {
      err += std::fabs(filter.state()[0] - 5.0);
      ++count;
    }
  }
  return err / count;
}

void PrintFigure() {
  std::printf(
      "Ablation A2: effect of a misspecified R (true noise variance = "
      "1.0) and of the innovation-based noise servo.\n\n");
  AsciiTable table({"assumed R", "fixed-R avg err", "adaptive avg err"});
  for (double r : {1e-4, 1e-2, 1.0, 1e2, 1e4}) {
    table.AddRow({StrFormat("%.0e", r),
                  StrFormat("%.4f", RunTracking(r, false)),
                  StrFormat("%.4f", RunTracking(r, true))});
  }
  table.Print();
  std::printf(
      "\nReading the table: with a fixed, badly wrong R the estimate is "
      "either noise-chasing (R too small) or sluggish (R too large). The "
      "servo scales R and Q only within 0.05-50x nominal, so an R "
      "understated by orders of magnitude saturates both scales and "
      "keeps its gain, while a large overstatement is pulled back.\n");
}

void BM_AdaptiveEstimation(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunTracking(1e-4, true));
  }
}
BENCHMARK(BM_AdaptiveEstimation);

}  // namespace

int main(int argc, char** argv) {
  PrintFigure();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
