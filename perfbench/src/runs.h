#ifndef PERFBENCH_RUNS_H_
#define PERFBENCH_RUNS_H_

#include <cstdint>
#include <string>

#include "measure.h"
#include "workload.h"

namespace perfbench {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  std::string out_dir = ".bench_out";
  /// Closed loop instead of the workload's fixed rate (capacity probe).
  bool calibrate = false;
};

struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  /// The metrics the result line carries (the BENCHMARK.json set).
  MetricMap metrics;
  /// Everything else measured, printed by name above the result line.
  MetricMap extra;
};

/// The untraced run: the workload at its fixed open-loop rate for the
/// timed window, plus set-up repeats and the correctness references.
RunResult RunEndToEnd(const WorkloadSpec& spec, const RunOptions& options);

/// The traced run: spans around every call, the engine's exact counters,
/// and the layer ladder from linalg to the engine on the same inputs.
RunResult RunTraced(const WorkloadSpec& spec, const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_RUNS_H_
