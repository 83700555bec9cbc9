// The untraced end-to-end run.
//
// Load model: an open loop. Sensors sample on a clock, so one driver
// thread issues ticks at the workload's fixed rate whatever the engine
// does; a tick's latency runs from its due time to the return of
// ProcessTick plus DrainNotifications, so a stall also counts against the
// ticks queued behind it. Inputs are generated before the clock starts,
// and the per-tick batch rewrite, the oracle's sampled checks, and the
// wait for the next due time run on the driver outside the measured
// engine calls (their CPU is subtracted from the engine's).

#include <malloc.h>
#include <sys/prctl.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "oracle.h"
#include "runs.h"

namespace perfbench {

namespace {

/// tick_p99_us is the lower quartile of the p99s of consecutive blocks of
/// this many ticks (five samples beyond each block's p99; a 20-second run
/// has at least four blocks). With four busy threads on four shared cores,
/// the scheduler stalls a worker for 10-20 ms a few times per run and each
/// stall backs up dozens of ticks; contention only ever adds time, so the
/// quieter blocks carry the engine's own tail (the same reasoning as the
/// fastest-chunk rule of bench_fleet_scale). The pooled p99 and the block
/// median are reported next to it.
constexpr size_t kTailBlockTicks = 500;

/// tick_p50_us and source_ticks_per_s follow the same rule with shorter
/// blocks: the lower quartile of the medians of consecutive blocks of this
/// many ticks (a 20-second run has at least ten). The shared machine goes
/// through busy spells of 5-20 s in which every tick's service time doubles
/// or triples; a pooled median moves with how much of the run such a spell
/// covered, while the quieter blocks still show the engine's own median.
/// The pooled medians are reported next to them.
constexpr size_t kMedianBlockTicks = 200;

/// The 1-shard twin is compared with the main engine at this tick (or at
/// the end of warm-up, if sooner): enough ticks for faults, spills and
/// governor epochs, without replaying the whole warm-up at one shard.
constexpr int64_t kTwinTicks = 256;

/// Sleeps to just before `due`, then spins, so a tick starts on time
/// without paying the scheduler's wake-up latency. The spin is long because
/// on a shared VM a timer wake-up is often hundreds of microseconds late
/// when the host is busy, and a late start counts against the tick.
void WaitUntil(Clock::time_point due) {
  constexpr auto kSpin = std::chrono::milliseconds(2);
  if (due - Clock::now() > kSpin) std::this_thread::sleep_until(due - kSpin);
  while (Clock::now() < due) {
  }
}

/// Resident set size after handing free heap pages back to the kernel, so
/// the reading counts what the engine holds rather than the high-water mark
/// of buffers it has already freed (which varies with the seed).
int64_t TrimmedRssBytes() {
  malloc_trim(0);
  return CurrentRssBytes();
}

/// One line per timed tick (tick, service us, latency us), for finding
/// where a tail came from.
void WriteTickSeries(const std::string& path, int64_t first_tick,
                     const std::vector<double>& service_us,
                     const std::vector<double>& latency_us) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return;
  std::fprintf(out, "tick\tservice_us\tlatency_us\n");
  for (size_t i = 0; i < service_us.size(); ++i) {
    std::fprintf(out, "%lld\t%.1f\t%.1f\n",
                 static_cast<long long>(first_tick) +
                     static_cast<long long>(i),
                 service_us[i], latency_us[i]);
  }
  std::fclose(out);
}

/// Engine counters whose window deltas become traffic metrics. Summed
/// over segments, because the checkpoint round trip swaps the engine.
struct Counters {
  int64_t uplink_bytes = 0;
  int64_t downlink = 0;  // control messages + fusion broadcasts
  int64_t dropped = 0;

  static Counters Read(const dkf::ShardedStreamEngine& engine) {
    Counters c;
    c.uplink_bytes = engine.uplink_traffic().bytes;
    c.downlink = engine.control_messages() + engine.fusion_stats().broadcasts;
    c.dropped = engine.serve_stats().dropped;
    return c;
  }
  void AddDelta(const Counters& begin, const Counters& end) {
    uplink_bytes += end.uplink_bytes - begin.uplink_bytes;
    downlink += end.downlink - begin.downlink;
    dropped += end.dropped - begin.dropped;
  }
};

/// Builds an engine and runs `ticks` ticks of the warm-up (filter
/// convergence, fast-path arming, lane absorption), capturing the digest
/// after `capture_at` ticks when `digest` is given (the digest read is
/// excluded from the returned set-up time).
double SetUp(const WorkloadSpec& spec, const Inputs& inputs, uint64_t seed,
             int shards, int64_t ticks, int64_t capture_at, Digest* digest,
             Oracle* oracle, dkf::ReadingBatch* batch,
             std::unique_ptr<dkf::ShardedStreamEngine>* engine) {
  const Clock::time_point start = Clock::now();
  *engine = BuildEngine(spec, inputs, seed, shards, /*with_subscriptions=*/true,
                        oracle, nullptr, nullptr);
  oracle->ResetNotifications();
  RunTicks(engine->get(), inputs, batch, 0, capture_at, oracle);
  const Clock::time_point captured = Clock::now();
  if (digest != nullptr) *digest = oracle->Capture(**engine, inputs);
  const Clock::time_point resumed = Clock::now();
  RunTicks(engine->get(), inputs, batch, capture_at, ticks, oracle);
  return SecondsBetween(start, captured) + SecondsBetween(resumed, Clock::now());
}

}  // namespace

RunResult RunEndToEnd(const WorkloadSpec& spec, const RunOptions& options) {
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  Oracle oracle;
  const Inputs inputs = Inputs::Generate(spec, options.seed);
  dkf::ReadingBatch batch = inputs.MakeBatch();
  const double sources = static_cast<double>(spec.total_sources());
  const int64_t warmup = spec.warmup_ticks;
  const int64_t ticks = std::max<int64_t>(
      1, std::llround(spec.ticks_per_second * options.seconds));

  // Memory is measured from before the first set-up: later set-ups reuse
  // the allocator's freed pages and would read low.
  const int64_t rss_before = TrimmedRssBytes();
  std::vector<double> setup_seconds;
  std::unique_ptr<dkf::ShardedStreamEngine> engine;
  const int64_t twin_ticks = std::min<int64_t>(kTwinTicks, warmup);
  Digest at_twin_tick;
  setup_seconds.push_back(SetUp(spec, inputs, options.seed, spec.shards,
                                warmup, twin_ticks, &at_twin_tick, &oracle,
                                &batch, &engine));

  // ---- timed window -------------------------------------------------
  oracle.ResetAnswerStats();
  oracle.ResetNotifications();
  std::vector<double> latency_us, service_us, late_us;
  latency_us.reserve(static_cast<size_t>(ticks));
  service_us.reserve(static_cast<size_t>(ticks));
  late_us.reserve(static_cast<size_t>(ticks));
  Counters window;
  Counters segment_begin = Counters::Read(*engine);
  double recover_seconds = 0.0;
  double driver_cpu = 0.0;
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / spec.ticks_per_second));
  const std::string snapshot_path =
      options.out_dir + "/" + spec.name + "-" +
      std::to_string(options.seed) + ".snapshot";

  const double cpu_begin = ProcessCpuSeconds();
  const Clock::time_point window_begin = Clock::now();
  const Clock::time_point first_due = window_begin + std::chrono::milliseconds(2);
  double driver_mark = ThreadCpuSeconds();
  for (int64_t i = 0; i < ticks; ++i) {
    const int64_t tick = warmup + i;
    inputs.Fill(tick, &batch);
    oracle.BeforeTick(*engine, inputs);
    const Clock::time_point due = first_due + i * period;
    if (!options.calibrate) WaitUntil(due);
    const Clock::time_point start = Clock::now();
    driver_cpu += ThreadCpuSeconds() - driver_mark;

    const bool checkpoint_tick = spec.checkpoint && i == ticks / 2;
    if (checkpoint_tick) {
      // Save -> Restore -> continue on the restored engine. The old
      // engine is destroyed first so only one copy is resident.
      oracle.Check(engine->Save(snapshot_path), "Save");
      window.AddDelta(segment_begin, Counters::Read(*engine));
      engine.reset();
      auto restored = dkf::ShardedStreamEngine::Restore(
          snapshot_path, spec.shards, spec.batched_fleet);
      if (!oracle.Check(restored, "Restore")) break;
      engine = std::move(restored).value();
      segment_begin = Counters::Read(*engine);
    }
    oracle.Check(engine->ProcessTick(batch), "ProcessTick");
    std::vector<dkf::NotificationBatch> delivered = engine->DrainNotifications();
    const Clock::time_point end = Clock::now();
    driver_mark = ThreadCpuSeconds();

    latency_us.push_back(
        std::chrono::duration<double, std::micro>(end - (options.calibrate ? start : due))
            .count());
    service_us.push_back(
        std::chrono::duration<double, std::micro>(end - start).count());
    late_us.push_back(std::max(
        0.0, std::chrono::duration<double, std::micro>(start - due).count()));
    if (checkpoint_tick) {
      recover_seconds = SecondsBetween(start, end);
      std::error_code ignored;
      std::filesystem::remove(snapshot_path, ignored);
    }
    oracle.FoldNotifications(delivered);
    oracle.AfterTick(*engine, inputs, tick);
  }
  const double window_seconds = SecondsBetween(window_begin, Clock::now());
  driver_cpu += ThreadCpuSeconds() - driver_mark;
  const double engine_cpu = ProcessCpuSeconds() - cpu_begin - driver_cpu;
  const int64_t rss_after = TrimmedRssBytes();
  WriteTickSeries(options.out_dir + "/ticks-" + spec.name + "-" +
                      std::to_string(options.seed) + ".tsv",
                  warmup, service_us, latency_us);
  RunResult result;
  if (engine == nullptr) {  // the restore failed; the oracle counted it
    result.attempted = oracle.attempted();
    result.failed = oracle.failed();
    return result;
  }
  window.AddDelta(segment_begin, Counters::Read(*engine));
  oracle.CheckDropped(window.dropped);
  const Digest final_digest = oracle.Capture(*engine, inputs);
  const double error_over_delta = oracle.mean_error_over_delta();
  const double degraded_ratio = oracle.degraded_ratio();
  const int64_t window_notifications = oracle.notifications();
  engine.reset();

  // ---- set-up repeats and correctness references --------------------
  // The second set-up doubles as the uninterrupted reference of the
  // checkpointed run; the 1-shard twin checks shard invariance at the
  // end of warm-up.
  for (int repeat = 0; repeat < 2; ++repeat) {
    setup_seconds.push_back(SetUp(spec, inputs, options.seed, spec.shards,
                                  warmup, warmup, nullptr, &oracle, &batch,
                                  &engine));
    if (repeat == 0 && spec.checkpoint) {
      oracle.ResetNotifications();
      RunTicks(engine.get(), inputs, &batch, warmup, warmup + ticks, &oracle);
      oracle.Compare(oracle.Capture(*engine, inputs), final_digest,
                     "restore_vs_uninterrupted");
    }
    engine.reset();
  }
  Digest twin;
  SetUp(spec, inputs, options.seed, /*shards=*/1, twin_ticks, twin_ticks,
        &twin, &oracle, &batch, &engine);
  oracle.Compare(at_twin_tick, twin, "1_vs_n_shards");
  engine.reset();

  // ---- metrics ------------------------------------------------------
  const double source_ticks = sources * static_cast<double>(ticks);
  result.attempted = oracle.attempted();
  result.failed = oracle.failed();
  MetricMap& m = result.metrics;
  size_t median_blocks = 0;
  const double service_p50_us = BlockedQuantile(
      service_us, 0.50, kMedianBlockTicks, 0.25, &median_blocks);
  m["source_ticks_per_s"] = {sources / (service_p50_us * 1e-6), "1/s"};
  m["tick_p50_us"] = {BlockedQuantile(latency_us, 0.50, kMedianBlockTicks,
                                      0.25, &median_blocks),
                      "us"};
  MetricMap& x = result.extra;
  x["tick_p50_blocks"] = {static_cast<double>(median_blocks), "count"};
  x["tick_p50_pooled_us"] = {Quantile(latency_us, 0.50), "us"};
  x["service_p50_pooled_us"] = {Median(service_us), "us"};
  size_t p99_blocks = 0;
  x["tick_p99_us"] = {BlockedQuantile(latency_us, 0.99, kTailBlockTicks, 0.25,
                                      &p99_blocks),
                      "us"};
  m["cpu_ns_per_source_tick"] = {engine_cpu * 1e9 / source_ticks, "ns"};
  m["uplink_bytes_per_source_tick"] = {
      static_cast<double>(window.uplink_bytes) / source_ticks, "B"};
  m["avg_error_over_delta"] = {error_over_delta, "ratio"};
  m["bytes_per_source"] = {
      static_cast<double>(rss_after - rss_before) / sources, "B"};
  m["setup_s"] = {Median(setup_seconds), "s"};

  x["downlink_msgs_per_ksource_tick"] = {
      static_cast<double>(window.downlink) * 1000.0 / source_ticks, "msgs"};
  x["degraded_answer_ratio"] = {degraded_ratio, "ratio"};
  x["notifications_per_s"] = {
      static_cast<double>(window_notifications) / window_seconds, "1/s"};
  if (spec.checkpoint) x["recover_s"] = {recover_seconds, "s"};
  x["failed_op_ratio"] = {static_cast<double>(result.failed) /
                              static_cast<double>(std::max<int64_t>(
                                  1, result.attempted)),
                          "ratio"};
  x["tick_samples"] = {static_cast<double>(latency_us.size()), "count"};
  x["tick_p99_blocks"] = {static_cast<double>(p99_blocks), "count"};
  x["tick_p99_pooled_us"] = {Quantile(latency_us, 0.99), "us"};
  x["tick_p99_block_median_us"] = {
      BlockedQuantile(latency_us, 0.99, kTailBlockTicks, 0.5, &p99_blocks),
      "us"};
  x["window_s"] = {window_seconds, "s"};
  x["driver_late_p99_us"] = {Quantile(late_us, 0.99), "us"};
  x["capacity_ticks_per_s"] = {1e6 / service_p50_us, "1/s"};
  return result;
}

}  // namespace perfbench
