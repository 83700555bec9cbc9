// Scenario battery for the adaptive noise servo (docs/adaptive.md): the
// three streamgen workloads that violate a fixed-R model — a regime
// shift, a degrading sensor, and ADC-quantized readings — each driven
// through the full DKF protocol twice (servo on vs. off). The claims
// under test, per scenario:
//
//   1. Suppression: the adaptive run transmits fewer updates than the
//      fixed run by a pinned margin (the servo pays for itself).
//   2. Precision: on every suppressed, non-degraded tick the served
//      answer is within delta of the reading that entered the protocol
//      — adaptation never silently weakens the paper's guarantee.
//   3. Shard invariance: with the servo on, the engine answers
//      bit-identically at 1/2/4/8 shards, fault cocktail included.
//   4. Snapshots: a checkpoint taken mid-adaptation restores at any
//      shard count and continues bit-identically.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "models/model_factory.h"
#include "obs/metrics_registry.h"
#include "runtime/sharded_engine.h"
#include "streamgen/scenario_generator.h"

namespace dkf {
namespace {

StateModel ScalarModel(double measurement_variance,
                       double process_variance = 0.05) {
  ModelNoise noise;
  noise.process_variance = process_variance;
  noise.measurement_variance = measurement_variance;
  return MakeLinearModel(1, 1.0, noise).value();
}

AdaptiveNoiseConfig ScenarioAdaptation() {
  AdaptiveNoiseConfig config;
  config.enabled = true;
  config.warmup_corrections = 4;
  config.widen_rate = 0.15;
  config.shrink_rate = 0.05;
  // Suppression spaces corrections far apart by design; keep servoing
  // on them rather than treating every gap as a holdover outage.
  config.holdover_gap = 256;
  return config;
}

struct ScenarioRun {
  int64_t updates = 0;
  int precision_checks = 0;
};

/// Drives one scenario stream through a single-source engine and
/// checks the delta guarantee on every suppressed tick along the way.
ScenarioRun DriveScenario(const TimeSeries& observed, const StateModel& model,
                          double delta, bool adaptive) {
  ShardedStreamEngineOptions options;
  options.channel.seed = 5;
  if (adaptive) options.protocol.adaptive = ScenarioAdaptation();
  ShardedStreamEngine engine(options);
  EXPECT_TRUE(engine.RegisterSource(1, model).ok());
  ContinuousQuery query;
  query.id = 1;
  query.source_id = 1;
  query.precision = delta;
  EXPECT_TRUE(engine.SubmitQuery(query).ok());

  ScenarioRun run;
  int64_t updates_before = 0;
  for (size_t k = 0; k < observed.size(); ++k) {
    std::map<int, Vector> readings;
    readings[1] = Vector{observed.value(k)};
    EXPECT_TRUE(engine.ProcessTick(readings).ok()) << "tick " << k;
    const int64_t updates_now = engine.updates_sent(1).value();
    const bool suppressed = updates_now == updates_before;
    updates_before = updates_now;
    if (suppressed && !engine.answer_degraded(1).value()) {
      // The paper's contract, unchanged by the servo: a suppressed
      // answer is within delta of the value the source saw.
      EXPECT_LE(std::fabs(engine.Answer(1).value()[0] - observed.value(k)),
                delta)
          << (adaptive ? "adaptive" : "fixed") << " tick " << k;
      ++run.precision_checks;
    }
  }
  run.updates = engine.updates_sent(1).value();
  EXPECT_TRUE(engine.VerifyMirrorConsistency().ok());
  return run;
}

/// Asserts the pinned suppression margin: adaptive_updates must be at
/// most `max_percent` percent of fixed_updates. The suppression gain
/// (1 - adaptive/fixed) must also stay within 5 points of the gain
/// `recorded_gain` measured on these 2000-point streams, and never
/// fall below 8%: the streams are seeded and the protocol deterministic,
/// so the slack only covers deliberate servo-law retunes.
void ExpectMargin(const ScenarioRun& adaptive, const ScenarioRun& fixed,
                  int64_t max_percent, double recorded_gain,
                  const char* scenario) {
  ASSERT_GT(fixed.updates, 0) << scenario;
  EXPECT_GT(adaptive.precision_checks, 0) << scenario;
  EXPECT_GT(fixed.precision_checks, 0) << scenario;
  EXPECT_LE(adaptive.updates * 100, fixed.updates * max_percent)
      << scenario << ": adaptive sent " << adaptive.updates
      << " updates vs fixed " << fixed.updates;
  const double gain = 1.0 - static_cast<double>(adaptive.updates) /
                                static_cast<double>(fixed.updates);
  EXPECT_GE(gain, std::max(0.08, recorded_gain - 0.05)) << scenario;
}

TEST(AdaptiveScenariosTest, RegimeShiftAdaptiveBeatsFixed) {
  RegimeShiftOptions options;
  options.num_points = 2000;  // the recorded gain's stream length
  options.shift_point = 1000;
  const ScenarioData data = GenerateRegimeShift(options).value();
  // Configured R matches the pre-shift sensor; after the shift the true
  // noise stddev is 16x the configured one.
  const StateModel model = ScalarModel(/*measurement_variance=*/0.0025);
  const ScenarioRun adaptive =
      DriveScenario(data.observed, model, /*delta=*/2.0, /*adaptive=*/true);
  const ScenarioRun fixed =
      DriveScenario(data.observed, model, /*delta=*/2.0, /*adaptive=*/false);
  ExpectMargin(adaptive, fixed, /*max_percent=*/80, /*recorded_gain=*/0.3016,
               "regime-shift");
}

TEST(AdaptiveScenariosTest, DegradingSensorAdaptiveBeatsFixed) {
  DegradingSensorOptions options;
  options.num_points = 2000;  // the recorded gain's stream length
  const ScenarioData data = GenerateDegradingSensor(options).value();
  const StateModel model = ScalarModel(/*measurement_variance=*/0.0025);
  const ScenarioRun adaptive =
      DriveScenario(data.observed, model, /*delta=*/2.0, /*adaptive=*/true);
  const ScenarioRun fixed =
      DriveScenario(data.observed, model, /*delta=*/2.0, /*adaptive=*/false);
  // The margin is tighter than the regime shift's: the servo trails a
  // ramp for the whole run instead of converging once after a step.
  ExpectMargin(adaptive, fixed, /*max_percent=*/90, /*recorded_gain=*/0.1296,
               "degrading-sensor");
}

TEST(AdaptiveScenariosTest, QuantizedReadingsAdaptiveBeatsFixed) {
  QuantizedReadingsOptions options;
  options.num_points = 2000;  // the recorded gain's stream length
  const ScenarioData data = GenerateQuantizedReadings(options).value();
  // Configured R believes the sensor is nearly noise-free; the real
  // error budget is the 0.5-unit ADC step, whose quantization variance
  // the servo's step floor discovers. Delta below the step makes every
  // level flip a transmission for the fixed filter. Process noise is
  // honest about the slow truth (a large Q would make the filter chase
  // readings no matter what R says, hiding the step floor's effect).
  const StateModel model = ScalarModel(/*measurement_variance=*/1e-4,
                                       /*process_variance=*/1e-4);
  const ScenarioRun adaptive =
      DriveScenario(data.observed, model, /*delta=*/0.4, /*adaptive=*/true);
  const ScenarioRun fixed =
      DriveScenario(data.observed, model, /*delta=*/0.4, /*adaptive=*/false);
  ExpectMargin(adaptive, fixed, /*max_percent=*/80, /*recorded_gain=*/0.2424,
               "quantized");
}

// --- Shard invariance and snapshots -----------------------------------

constexpr int kNumScenarioSources = 6;
constexpr int64_t kShardTicks = 700;
constexpr int64_t kSnapTick = 350;

ChannelOptions ScenarioChannel() {
  ChannelOptions options;
  options.seed = 314;
  FaultModel fault;
  fault.gilbert_elliott = GilbertElliottLoss{
      /*p_good_to_bad=*/0.05, /*p_bad_to_good=*/0.3,
      /*good_loss=*/0.0, /*bad_loss=*/1.0};
  fault.delay = DelayModel{/*min_ticks=*/0, /*max_ticks=*/1};
  fault.outages.push_back(OutageWindow{/*start=*/200, /*end=*/215});
  fault.ack_loss_probability = 0.04;
  fault.corruption_probability = 0.04;
  fault.active_until = 500;
  options.fault = fault;
  return options;
}

ProtocolOptions ScenarioProtocol() {
  ProtocolOptions protocol;
  protocol.heartbeat_interval = 3;
  protocol.staleness_budget = 5;
  protocol.resync_burst_retries = 4;
  protocol.resync_retry_backoff = 6;
  protocol.adaptive = ScenarioAdaptation();
  return protocol;
}

/// Six sources, two per scenario stream, all with understated R so the
/// servo is active everywhere — including through resync episodes the
/// fault cocktail forces, which carry the adapter payload on the wire.
void InstallScenarioWorkload(ShardedStreamEngine& system) {
  // Tracing on: the adapt.* gauges (and the kNoiseAdapt/kAdaptFreeze
  // event stream) only exist on a traced system.
  ASSERT_TRUE(system.EnableTracing().ok());
  for (int id = 1; id <= kNumScenarioSources; ++id) {
    ASSERT_TRUE(system.RegisterSource(id, ScalarModel(0.0025)).ok());
    ContinuousQuery query;
    query.id = id;
    query.source_id = id;
    query.precision = 1.5 + 0.5 * (id % 2);
    ASSERT_TRUE(system.SubmitQuery(query).ok());
  }
}

std::vector<std::map<int, Vector>> ScenarioReadings() {
  RegimeShiftOptions shift;
  shift.num_points = kShardTicks;
  shift.shift_point = 250;
  DegradingSensorOptions degrade;
  degrade.num_points = kShardTicks;
  QuantizedReadingsOptions quantized;
  quantized.num_points = kShardTicks;
  const ScenarioData shift_a = GenerateRegimeShift(shift).value();
  shift.seed += 1;
  const ScenarioData shift_b = GenerateRegimeShift(shift).value();
  const ScenarioData degrade_a = GenerateDegradingSensor(degrade).value();
  degrade.seed += 1;
  const ScenarioData degrade_b = GenerateDegradingSensor(degrade).value();
  const ScenarioData quant_a = GenerateQuantizedReadings(quantized).value();
  quantized.seed += 1;
  const ScenarioData quant_b = GenerateQuantizedReadings(quantized).value();
  const TimeSeries* streams[kNumScenarioSources] = {
      &shift_a.observed,   &shift_b.observed, &degrade_a.observed,
      &degrade_b.observed, &quant_a.observed, &quant_b.observed};

  std::vector<std::map<int, Vector>> readings(kShardTicks);
  for (int64_t t = 0; t < kShardTicks; ++t) {
    for (int id = 1; id <= kNumScenarioSources; ++id) {
      readings[static_cast<size_t>(t)][id] =
          Vector{streams[id - 1]->value(static_cast<size_t>(t))};
    }
  }
  return readings;
}

TEST(AdaptiveScenariosTest, ShardCountInvarianceWithServoActive) {
  const std::vector<std::map<int, Vector>> readings = ScenarioReadings();

  ShardedStreamEngineOptions single_options;
  single_options.channel = ScenarioChannel();
  single_options.protocol = ScenarioProtocol();
  ShardedStreamEngine single(single_options);
  InstallScenarioWorkload(single);

  std::vector<std::unique_ptr<ShardedStreamEngine>> engines;
  for (int shards : {2, 4, 8}) {
    ShardedStreamEngineOptions options;
    options.num_shards = shards;
    options.channel = ScenarioChannel();
    options.protocol = ScenarioProtocol();
    engines.push_back(std::make_unique<ShardedStreamEngine>(options));
    InstallScenarioWorkload(*engines.back());
  }

  for (int64_t t = 0; t < kShardTicks; ++t) {
    ASSERT_TRUE(single.ProcessTick(readings[static_cast<size_t>(t)]).ok())
        << "tick " << t;
    for (auto& engine : engines) {
      ASSERT_TRUE(engine->ProcessTick(readings[static_cast<size_t>(t)]).ok())
          << "tick " << t << " shards=" << engine->num_shards();
    }
    if (t % 50 == 0 || t == kShardTicks - 1) {
      for (auto& engine : engines) {
        for (int id = 1; id <= kNumScenarioSources; ++id) {
          ASSERT_EQ(single.Answer(id).value()[0],
                    engine->Answer(id).value()[0])
              << "tick " << t << " shards=" << engine->num_shards()
              << " source=" << id;
          ASSERT_EQ(single.answer_degraded(id).value(),
                    engine->answer_degraded(id).value())
              << "tick " << t << " shards=" << engine->num_shards()
              << " source=" << id;
        }
      }
    }
  }

  // The servo must have actually moved off nominal under this workload
  // (understated R everywhere), or the invariance claim is vacuous.
  bool any_adapted = false;
  for (int id = 1; id <= kNumScenarioSources; ++id) {
    EXPECT_EQ(single.updates_sent(id).value(),
              engines[2]->updates_sent(id).value())
        << "source " << id;
    const MetricsRegistry metrics = single.MetricsSnapshot();
    const std::string gauge = "adapt.r_scale." + std::to_string(id);
    if (metrics.has_gauge(gauge) && metrics.gauge(gauge) != 1.0) {
      any_adapted = true;
    }
  }
  EXPECT_TRUE(any_adapted);
  EXPECT_TRUE(single.VerifyMirrorConsistency().ok());
  for (auto& engine : engines) {
    EXPECT_TRUE(engine->VerifyMirrorConsistency().ok())
        << "shards=" << engine->num_shards();
    const ProtocolFaultStats faults = engine->fault_stats();
    EXPECT_EQ(single.fault_stats().resyncs_applied, faults.resyncs_applied)
        << "shards=" << engine->num_shards();
    EXPECT_EQ(single.fault_stats().rejected_corrupt, faults.rejected_corrupt)
        << "shards=" << engine->num_shards();
  }
  // The cocktail really exercised resyncs, so adapter state crossed the
  // wire (and survived corruption attempts) during this run.
  EXPECT_GT(single.fault_stats().resyncs_applied, 0);
  EXPECT_GT(single.fault_stats().rejected_corrupt, 0);
}

TEST(AdaptiveScenariosTest, SnapshotV4RestoresMidAdaptationBitIdentically) {
  const std::vector<std::map<int, Vector>> readings = ScenarioReadings();

  auto drive = [&readings](auto& system, int64_t from, int64_t to) {
    for (int64_t t = from; t < to; ++t) {
      ASSERT_TRUE(system.ProcessTick(readings[static_cast<size_t>(t)]).ok())
          << "tick " << t;
    }
  };

  // Uninterrupted reference.
  ShardedStreamEngineOptions options;
  options.channel = ScenarioChannel();
  options.protocol = ScenarioProtocol();
  ShardedStreamEngine reference(options);
  InstallScenarioWorkload(reference);
  drive(reference, 0, kShardTicks);

  // Interrupted run: checkpoint mid-adaptation (the servo has moved by
  // kSnapTick but the fault window is still open), then restore at the
  // saved single shard and at four shards, and finish both.
  ShardedStreamEngine original(options);
  InstallScenarioWorkload(original);
  drive(original, 0, kSnapTick);
  const std::string path =
      ::testing::TempDir() + "/adaptive_scenarios.dkfsnap";
  ASSERT_TRUE(original.Save(path).ok());

  auto restored_or = ShardedStreamEngine::Restore(path);
  ASSERT_TRUE(restored_or.ok()) << restored_or.status().message();
  drive(*restored_or.value(), kSnapTick, kShardTicks);

  auto engine_or = ShardedStreamEngine::Restore(path, /*num_shards=*/4);
  ASSERT_TRUE(engine_or.ok()) << engine_or.status().message();
  drive(*engine_or.value(), kSnapTick, kShardTicks);

  for (int id = 1; id <= kNumScenarioSources; ++id) {
    const double want = reference.Answer(id).value()[0];
    EXPECT_EQ(want, restored_or.value()->Answer(id).value()[0])
        << "single-shard restore, source " << id;
    EXPECT_EQ(want, engine_or.value()->Answer(id).value()[0])
        << "engine restore, source " << id;
    EXPECT_EQ(reference.updates_sent(id).value(),
              restored_or.value()->updates_sent(id).value())
        << "source " << id;
    EXPECT_EQ(reference.updates_sent(id).value(),
              engine_or.value()->updates_sent(id).value())
        << "source " << id;
    // The servo state itself restored bit-exactly: same gauges.
    const std::string gauge = "adapt.r_scale." + std::to_string(id);
    const MetricsRegistry ref_metrics = reference.MetricsSnapshot();
    const MetricsRegistry restored_metrics =
        restored_or.value()->MetricsSnapshot();
    EXPECT_EQ(ref_metrics.has_gauge(gauge), restored_metrics.has_gauge(gauge))
        << "source " << id;
    EXPECT_EQ(ref_metrics.gauge(gauge), restored_metrics.gauge(gauge))
        << "source " << id;
  }
  EXPECT_TRUE(restored_or.value()->VerifyMirrorConsistency().ok());
  EXPECT_TRUE(engine_or.value()->VerifyMirrorConsistency().ok());
}

}  // namespace
}  // namespace dkf
