// perfbench: the repository benchmark (see ../README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--out <dir>] [--source-sha <sha>] [--calibrate]
//   perfbench --oracle-selftest
//
// Prints a provenance line, one "# <metric> <value> <unit>" line per
// measured metric, and as its last line the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// whose metrics are the end-to-end set (untraced) or the per-layer set
// (traced) named in BENCHMARK.json. Exits 1 when any operation failed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "common/status.h"
#include "obs/trace.h"
#include "oracle.h"
#include "runs.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool tiny = false;
  bool calibrate = false;
  bool oracle_selftest = false;
  std::string out_dir = ".bench_out";
  std::string source_sha = "unknown";
};

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr, "perfbench: %s\n", message);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      args.workload = value();
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      args.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      args.trace = std::atoi(value().c_str());
    } else if (arg == "--out") {
      args.out_dir = value();
    } else if (arg == "--source-sha") {
      args.source_sha = value();
    } else if (arg == "--tiny") {
      args.tiny = true;
    } else if (arg == "--calibrate") {
      args.calibrate = true;
    } else if (arg == "--oracle-selftest") {
      args.oracle_selftest = true;
    } else {
      Usage(("unknown flag " + arg).c_str());
    }
  }
  if (!(args.seconds > 0.0)) Usage("--seconds must be positive");
  if (args.trace != 0 && args.trace != 1) Usage("--trace must be 0 or 1");
  return args;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

int64_t MemAvailableBytes() {
  std::ifstream meminfo("/proc/meminfo");
  std::string line;
  while (std::getline(meminfo, line)) {
    if (line.rfind("MemAvailable:", 0) == 0) {
      return std::atoll(line.c_str() + 13) * 1024;
    }
  }
  return 0;
}

/// Refuses numbers from a build whose timings mean nothing.
bool ProvenanceOk(std::string* why) {
  const std::string flags = PERFBENCH_FLAGS;
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    *why = std::string("build type is ") + PERFBENCH_BUILD_TYPE +
           ", not Release";
    return false;
  }
  for (const char* bad : {"-fsanitize", "--coverage", "-O0", "-fprofile"}) {
    if (flags.find(bad) != std::string::npos) {
      *why = std::string("compile flags contain ") + bad;
      return false;
    }
  }
  return true;
}

void PrintProvenance(const Args& args) {
  std::printf(
      "{\"provenance\": {\"build_type\": \"%s\", \"compiler\": \"%s\", "
      "\"flags\": \"%s\", \"source_sha\": \"%s\", \"nproc\": %u, "
      "\"cpu\": \"%s\", \"dkf_obs\": %s, \"workload\": \"%s\", "
      "\"seed\": %llu, \"seconds\": %g, \"trace\": %d}}\n",
      PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, PERFBENCH_FLAGS,
      args.source_sha.c_str(), std::thread::hardware_concurrency(),
      CpuModel().c_str(), DKF_OBS_ENABLED ? "true" : "false",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace);
}

void PrintMetrics(const MetricMap& metrics) {
  for (const auto& [name, metric] : metrics) {
    std::printf("# %-36s %.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

void PrintResult(const RunResult& result) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              result.failed == 0 ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed));
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    const double value = std::isfinite(metric.value) ? metric.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), value, metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

// ---- oracle self-test ------------------------------------------------

/// Feeds the oracle three deliberate faults — answers checked against the
/// wrong readings, a 1-shard twin one tick behind, and a restored engine
/// fed one altered tick — and checks each is counted, while the honest
/// comparisons count nothing.
int OracleSelfTest() {
  WorkloadSpec spec;
  SpecFor("churn_links", /*tiny=*/true, &spec);
  const uint64_t seed = 7;
  const Inputs inputs = Inputs::Generate(spec, seed);
  const Inputs other = Inputs::Generate(spec, seed + 1);
  dkf::ReadingBatch batch = inputs.MakeBatch();
  const std::string path = ".bench_out/oracle-selftest.snapshot";
  std::filesystem::create_directories(".bench_out");
  int problems = 0;
  auto expect = [&](bool ok, const char* what) {
    std::printf("oracle-selftest: %-44s %s\n", what, ok ? "ok" : "FAILED");
    if (!ok) ++problems;
  };

  Oracle oracle;
  auto four = BuildEngine(spec, inputs, seed, 4, true, &oracle, nullptr,
                          nullptr);
  auto one = BuildEngine(spec, inputs, seed, 1, true, &oracle, nullptr,
                         nullptr);
  RunTicks(four.get(), inputs, &batch, 0, 40, &oracle);
  RunTicks(one.get(), inputs, &batch, 0, 40, &oracle);
  const int64_t clean_before = oracle.failed();
  oracle.Compare(oracle.Capture(*one, inputs), oracle.Capture(*four, inputs),
                 "selftest_clean");
  expect(oracle.failed() == clean_before && clean_before == 0,
         "honest 1-vs-4 comparison counts nothing");

  // 1. Wrong answers: check the engine against another seed's readings.
  int64_t before = oracle.failed();
  oracle.BeforeTick(*four, other);
  RunTicks(four.get(), inputs, &batch, 40, 41, &oracle);
  oracle.AfterTick(*four, other, 40);
  expect(oracle.failed() > before, "wrong answers count as failures");

  // 2. 1-vs-4 mismatch: the twin is one tick behind.
  before = oracle.failed();
  oracle.Compare(oracle.Capture(*one, inputs), oracle.Capture(*four, inputs),
                 "selftest_shards");
  expect(oracle.failed() > before, "1-vs-4-shard mismatch counts");

  // 3. Post-restore mismatch: the restored engine sees one altered tick.
  RunTicks(one.get(), inputs, &batch, 40, 41, &oracle);
  oracle.Check(four->Save(path), "Save");
  auto restored = dkf::ShardedStreamEngine::Restore(path, 4, true);
  oracle.Check(restored, "Restore");
  std::filesystem::remove(path);
  before = oracle.failed();
  if (restored.ok()) {
    auto engine = std::move(restored).value();
    inputs.Fill(41, &batch);
    for (dkf::Vector& value : batch.values) value[0] += 50.0;
    oracle.Check(engine->ProcessTick(batch), "ProcessTick");
    RunTicks(one.get(), inputs, &batch, 41, 42, &oracle);
    oracle.Compare(oracle.Capture(*one, inputs),
                   oracle.Capture(*engine, inputs), "selftest_restore");
  }
  expect(oracle.failed() > before, "post-restore mismatch counts");
  expect(oracle.attempted() > 0, "attempted operations are counted");
  return problems == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);
  if (args.oracle_selftest) return OracleSelfTest();

  WorkloadSpec spec;
  if (!SpecFor(args.workload, args.tiny, &spec)) {
    Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  std::string why;
  if (!ProvenanceOk(&why)) {
    std::fprintf(stderr, "perfbench: refusing to measure: %s\n", why.c_str());
    return 4;
  }
  // Memory pre-flight: fail loudly instead of letting the kernel OOM.
  // The traced run keeps two 1-shard engines side by side.
  const int engines = args.trace ? 2 : 1;
  const double projected =
      spec.projected_bytes_per_source * spec.total_sources() * engines;
  const int64_t available = MemAvailableBytes();
  if (available > 0 && projected > 0.8 * static_cast<double>(available)) {
    std::fprintf(stderr,
                 "perfbench: %s needs about %.2f GB (%d sources x %.0f B x "
                 "%d engines) but only %.2f GB is available; refusing to "
                 "start\n",
                 spec.name.c_str(), projected / 1e9, spec.total_sources(),
                 spec.projected_bytes_per_source, engines,
                 static_cast<double>(available) / 1e9);
    return 3;
  }
  std::error_code ignored;
  std::filesystem::create_directories(args.out_dir, ignored);

  RunOptions options;
  options.seed = args.seed;
  options.seconds = args.seconds;
  options.out_dir = args.out_dir;
  options.calibrate = args.calibrate;
  const RunResult result =
      args.trace ? RunTraced(spec, options) : RunEndToEnd(spec, options);

  PrintProvenance(args);
  PrintMetrics(result.metrics);
  PrintMetrics(result.extra);
  PrintResult(result);
  std::fflush(stdout);
  return result.failed == 0 ? 0 : 1;
}
