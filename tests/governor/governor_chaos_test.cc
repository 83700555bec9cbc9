// Integration chaos harness for the delta governor (docs/governor.md):
// the full fault cocktail from dsms/chaos_test.cc — Bernoulli +
// Gilbert–Elliott loss, delay with reordering, outage windows, ACK
// loss, payload corruption — runs under a fleet-wide bytes/tick budget.
// The governor must (a) plan the exact same delta schedule at any shard
// count, (b) hold the budget with bounded overshoot once settled,
// (c) move every delta within its floor/ceiling/slew bounds, (d) freeze
// storm-hit sources instead of chasing them, and (e) spill batch lanes
// at most once per source per epoch when riding the fleet engine.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "models/model_factory.h"
#include "obs/trace.h"
#include "runtime/sharded_engine.h"

namespace dkf {
namespace {

constexpr int kNumSources = 12;
constexpr int64_t kTicks = 512;
constexpr int64_t kEpochTicks = 16;
/// Bytes/tick the fleet is held to. A scalar update is 29 bytes, so 12
/// unsuppressed sources demand ~348 bytes/tick plus protocol overhead;
/// the budget forces real suppression without starving the protocol.
constexpr double kBudget = 150.0;
/// First epoch the sustained-overshoot bound is enforced from: the
/// fault cocktail stays active until tick 280 (epoch ~17) and the spend
/// EWMA needs a few epochs to forget the final resync storms.
constexpr int64_t kSettleEpochs = 26;

StateModel ScalarModel(double process_variance) {
  ModelNoise noise;
  noise.process_variance = process_variance;
  noise.measurement_variance = 0.05;
  return MakeLinearModel(1, 1.0, noise).value();
}

ChannelOptions ChaosChannel() {
  ChannelOptions options;
  options.seed = 77;
  options.drop_probability = 0.1;
  FaultModel fault;
  fault.gilbert_elliott = GilbertElliottLoss{
      /*p_good_to_bad=*/0.05, /*p_bad_to_good=*/0.3,
      /*good_loss=*/0.0, /*bad_loss=*/1.0};
  fault.delay = DelayModel{/*min_ticks=*/0, /*max_ticks=*/1};
  fault.outages.push_back(OutageWindow{/*start=*/100, /*end=*/115});
  fault.outages.push_back(OutageWindow{/*start=*/220, /*end=*/232});
  fault.ack_loss_probability = 0.05;
  fault.corruption_probability = 0.03;
  fault.active_until = 280;
  options.fault = fault;
  return options;
}

GovernorOptions ChaosGovernor() {
  GovernorOptions governor;
  governor.enabled = true;
  governor.epoch_ticks = kEpochTicks;
  governor.budget_bytes_per_tick = kBudget;
  governor.delta_floor = 0.05;
  governor.delta_ceiling = 64.0;
  governor.max_step_ratio = 2.0;
  governor.dead_band = 0.10;
  return governor;
}

ShardedStreamEngineOptions EngineOptions(int shards,
                                         bool batched_fleet = false) {
  ShardedStreamEngineOptions options;
  options.num_shards = shards;
  options.channel = ChaosChannel();
  options.protocol.heartbeat_interval = 3;
  options.protocol.staleness_budget = 5;
  options.protocol.resync_burst_retries = 4;
  options.protocol.resync_retry_backoff = 6;
  options.governor = ChaosGovernor();
  options.batched_fleet = batched_fleet;
  return options;
}

void InstallWorkload(ShardedStreamEngine& engine) {
  ObsOptions obs;
  obs.ring_capacity = 1 << 18;
  ASSERT_TRUE(engine.EnableTracing(obs).ok());
  for (int id = 1; id <= kNumSources; ++id) {
    ASSERT_TRUE(
        engine.RegisterSource(id, ScalarModel(0.02 + 0.01 * (id % 4))).ok());
    ContinuousQuery query;
    query.id = id;
    query.source_id = id;
    query.precision = 0.5 + 0.25 * (id % 3);
    ASSERT_TRUE(engine.SubmitQuery(query).ok());
  }
}

/// The shared reading schedule: random walks, with every source's drift
/// doubling mid-run so the governor sees demand rise.
const std::vector<std::map<int, Vector>>& Readings() {
  static const std::vector<std::map<int, Vector>>* const readings = [] {
    auto* schedule = new std::vector<std::map<int, Vector>>();
    Rng rng(91);
    std::vector<double> values(kNumSources + 1, 0.0);
    for (int64_t t = 0; t < kTicks; ++t) {
      const double surge = t >= kTicks / 2 ? 2.0 : 1.0;
      std::map<int, Vector> tick;
      for (int id = 1; id <= kNumSources; ++id) {
        values[static_cast<size_t>(id)] +=
            rng.Gaussian(0.05 * (id % 3), 0.7 * surge);
        tick[id] = Vector{values[static_cast<size_t>(id)]};
      }
      schedule->push_back(std::move(tick));
    }
    return schedule;
  }();
  return *readings;
}

void RunAll(ShardedStreamEngine& engine) {
  for (int64_t t = 0; t < kTicks; ++t) {
    ASSERT_TRUE(engine.ProcessTick(Readings()[static_cast<size_t>(t)]).ok())
        << "tick " << t;
  }
}

bool IsGovernorKind(TraceEventKind kind) {
  return kind == TraceEventKind::kGovernorEpoch ||
         kind == TraceEventKind::kDeltaRaise ||
         kind == TraceEventKind::kDeltaLower ||
         kind == TraceEventKind::kGovernorFreeze;
}

std::vector<TraceEvent> GovernorTrace(const ShardedStreamEngine& engine) {
  std::vector<TraceEvent> events;
  for (const TraceEvent& event : engine.MergedTrace()) {
    if (IsGovernorKind(event.kind)) events.push_back(event);
  }
  return events;
}

TEST(GovernorChaosTest, DeltaScheduleIsShardCountInvariant) {
  // The 1-shard run is the reference; 2/4/8 shards must plan the same
  // epochs, install the same deltas, emit the same merged trace, and
  // fold to the same metrics snapshot, bit for bit.
  ShardedStreamEngine reference(EngineOptions(1));
  InstallWorkload(reference);
  RunAll(reference);
  const std::vector<TraceEvent> reference_trace = reference.MergedTrace();
  const MetricsRegistry reference_metrics = reference.MetricsSnapshot();
  ASSERT_EQ(reference.shard_sink(0)->dropped_events(), 0)
      << "ring too small for exact trace comparisons";
  EXPECT_FALSE(GovernorTrace(reference).empty());

  for (int shards : {2, 4, 8}) {
    ShardedStreamEngine engine(EngineOptions(shards));
    InstallWorkload(engine);
    RunAll(engine);
    for (int id = 1; id <= kNumSources; ++id) {
      EXPECT_EQ(engine.source_delta(id).value(),
                reference.source_delta(id).value())
          << "shards=" << shards << " source " << id;
    }
    EXPECT_TRUE(engine.MergedTrace() == reference_trace)
        << "shards=" << shards << ": merged trace differs";
    EXPECT_TRUE(engine.MetricsSnapshot() == reference_metrics)
        << "shards=" << shards << ": metrics snapshot differs";
  }
}

TEST(GovernorChaosTest, BudgetHoldsThroughChaosWithBoundedMoves) {
  ShardedStreamEngine engine(EngineOptions(4));
  InstallWorkload(engine);
  // Drive the run by hand so the wire-rate check below can window on
  // the settled tail instead of averaging over storms and cold start.
  constexpr int64_t kWindowStart = kSettleEpochs * kEpochTicks;
  int64_t window_start_bytes = 0;
  for (int64_t t = 0; t < kTicks; ++t) {
    if (t == kWindowStart) window_start_bytes = engine.uplink_traffic().bytes;
    ASSERT_TRUE(engine.ProcessTick(Readings()[static_cast<size_t>(t)]).ok())
        << "tick " << t;
  }

  const GovernorOptions& governor = engine.governor()->options();
  int64_t epochs_seen = 0;
  int64_t freezes = 0;
  for (const TraceEvent& event : GovernorTrace(engine)) {
    switch (event.kind) {
      case TraceEventKind::kGovernorEpoch: {
        ++epochs_seen;
        const double spend = event.value;
        const double budget = event.aux;
        EXPECT_EQ(budget, kBudget);
        if (event.detail >= kSettleEpochs) {
          EXPECT_LE(spend, budget * 1.05)
              << "epoch " << event.detail << " overshoots settled budget";
        }
        break;
      }
      case TraceEventKind::kDeltaRaise:
      case TraceEventKind::kDeltaLower: {
        // Every installed move respects the hard bounds and the
        // per-epoch slew limit.
        EXPECT_GE(event.value, governor.delta_floor);
        EXPECT_LE(event.value, governor.delta_ceiling);
        const double ratio = event.value / event.aux;
        EXPECT_LE(ratio, governor.max_step_ratio * (1.0 + 1e-12));
        EXPECT_GE(ratio, 1.0 / governor.max_step_ratio * (1.0 - 1e-12));
        // Dead band: a tightening move that installs must exceed the
        // band. Widening moves may install inside it — the band yields
        // whenever the fleet spends above budget, so small upward
        // corrections are never suppressed.
        if (event.kind == TraceEventKind::kDeltaLower) {
          EXPECT_GT(std::abs(event.value - event.aux),
                    governor.dead_band * event.aux);
        }
        break;
      }
      case TraceEventKind::kGovernorFreeze:
        ++freezes;
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(epochs_seen, kTicks / kEpochTicks);
  EXPECT_EQ(engine.governor()->epochs(), kTicks / kEpochTicks);
  // The outage windows must have driven at least one source into the
  // frozen state — otherwise this harness isn't testing the storm path.
  EXPECT_GT(freezes, 0);

  // The governor's own estimate settles under the budget; check the
  // wire agrees: actual bytes/tick over the settled window stays within
  // the EWMA tolerance of the budget.
  const double actual_rate =
      static_cast<double>(engine.uplink_traffic().bytes -
                          window_start_bytes) /
      static_cast<double>(kTicks - kWindowStart);
  EXPECT_LE(actual_rate, kBudget * 1.15);

  // Governor gauges ride the metrics snapshot.
  const MetricsRegistry metrics = engine.MetricsSnapshot();
  const auto& gauges = metrics.gauges();
  ASSERT_TRUE(gauges.contains("governor.budget_bytes_per_tick"));
  EXPECT_EQ(gauges.at("governor.budget_bytes_per_tick"), kBudget);
  ASSERT_TRUE(gauges.contains("governor.spend_bytes_per_tick"));
  EXPECT_LE(gauges.at("governor.spend_bytes_per_tick"), kBudget * 1.05);
  ASSERT_TRUE(gauges.contains("governor.overshoot"));
  ASSERT_TRUE(gauges.contains("governor.frozen"));
}

TEST(GovernorChaosTest, UplinkGaugesAreShardInvariant) {
  // Per-source uplink gauges (satellite of the governor work): present
  // for every source and identical across shard layouts.
  ShardedStreamEngine one(EngineOptions(1));
  InstallWorkload(one);
  RunAll(one);
  ShardedStreamEngine four(EngineOptions(4));
  InstallWorkload(four);
  RunAll(four);
  const MetricsRegistry metrics_one = one.MetricsSnapshot();
  const MetricsRegistry metrics_four = four.MetricsSnapshot();
  const auto& gauges_one = metrics_one.gauges();
  const auto& gauges_four = metrics_four.gauges();
  for (int id = 1; id <= kNumSources; ++id) {
    const std::string bytes_key = "uplink.bytes." + std::to_string(id);
    const std::string rate_key =
        "uplink.updates_rate_ewma." + std::to_string(id);
    ASSERT_TRUE(gauges_one.contains(bytes_key)) << bytes_key;
    ASSERT_TRUE(gauges_one.contains(rate_key)) << rate_key;
    EXPECT_EQ(gauges_one.at(bytes_key), gauges_four.at(bytes_key)) << id;
    EXPECT_EQ(gauges_one.at(rate_key), gauges_four.at(rate_key)) << id;
    EXPECT_GT(gauges_one.at(bytes_key), 0.0) << id;
  }
}

TEST(GovernorChaosTest, BatchedFleetRunsBitIdenticalUnderGovernor) {
  // Riding the batched fleet engine, the governed run must stay
  // bit-identical to the per-source path: same installed deltas, same
  // answers, same merged trace (governor events included).
  ShardedStreamEngine plain(EngineOptions(2, /*batched_fleet=*/false));
  InstallWorkload(plain);
  RunAll(plain);
  ShardedStreamEngine batched(EngineOptions(2, /*batched_fleet=*/true));
  InstallWorkload(batched);
  RunAll(batched);

  for (int id = 1; id <= kNumSources; ++id) {
    EXPECT_EQ(batched.source_delta(id).value(),
              plain.source_delta(id).value())
        << id;
    EXPECT_EQ(batched.Answer(id).value()[0], plain.Answer(id).value()[0])
        << id;
  }
  EXPECT_TRUE(batched.MergedTrace() == plain.MergedTrace())
      << "fleet-engine governor run diverged from the per-source path";
}

/// First epoch from which the trailing 8-epoch mean wire rate stays
/// within 10% of `budget` through the end of the run; rates.size() when
/// it never holds. Raw per-epoch rates are quantized (an update lands
/// in an epoch or it doesn't) and wobble ~20% around a held budget, so
/// the windowed mean is the signal that reflects settling.
int SettleEpoch(const std::vector<double>& rates, double budget) {
  constexpr int kWindow = 8;
  const int n = static_cast<int>(rates.size());
  int settled_from = n;
  for (int e = n - 1; e >= 0; --e) {
    const int begin = std::max(0, e - kWindow + 1);
    double sum = 0.0;
    for (int i = begin; i <= e; ++i) sum += rates[static_cast<size_t>(i)];
    if (sum / static_cast<double>(e - begin + 1) > budget * 1.10) break;
    settled_from = e;
  }
  return settled_from;
}

TEST(GovernorScaleTest, SettledWireRateIsFlatAsTheFleetDoubles) {
  // The robustness claim on a clean channel: under one fixed budget,
  // doubling the fleet doubles suppression, not bytes. Each fleet runs
  // 60 epochs of 16 ticks on 2 shards with a query precision far
  // tighter than the budget affords. Over epochs 30-59 the wire rate
  // must sit within +-10% of the budget with at most 5% sustained
  // overshoot, and the run must settle inside the sweep and no more
  // than 6 epochs later than recorded (the workload is seeded and
  // timing-free, so the slack only covers control-law changes).
  constexpr int kEpochs = 60;
  constexpr int kSettleFrom = 30;
  const struct {
    int sources;
    int recorded_settle;
  } kRows[] = {{64, 25}, {128, 29}, {256, 35}};
  for (const auto& row : kRows) {
    SCOPED_TRACE("sources=" + std::to_string(row.sources));
    ShardedStreamEngineOptions options;
    options.num_shards = 2;
    options.channel.seed = 9;
    options.governor = ChaosGovernor();
    options.governor.delta_ceiling = 256.0;
    ShardedStreamEngine engine(options);
    for (int id = 1; id <= row.sources; ++id) {
      ASSERT_TRUE(engine.RegisterSource(id, ScalarModel(0.05)).ok());
      ContinuousQuery query;
      query.id = id;
      query.source_id = id;
      query.precision = 0.5;
      ASSERT_TRUE(engine.SubmitQuery(query).ok());
    }

    Rng rng(91);
    std::vector<double> values(static_cast<size_t>(row.sources) + 1, 0.0);
    std::map<int, Vector> readings;
    std::vector<double> epoch_rates;
    int64_t epoch_start_bytes = 0;
    int64_t settle_start_bytes = 0;
    for (int64_t t = 0; t < kEpochs * kEpochTicks; ++t) {
      for (int id = 1; id <= row.sources; ++id) {
        values[static_cast<size_t>(id)] += rng.Gaussian(0.02 * (id % 5), 0.7);
        readings[id] = Vector{values[static_cast<size_t>(id)]};
      }
      if (t == kSettleFrom * kEpochTicks) {
        settle_start_bytes = engine.uplink_traffic().bytes;
      }
      ASSERT_TRUE(engine.ProcessTick(readings).ok()) << "tick " << t;
      if ((t + 1) % kEpochTicks == 0) {
        const int64_t bytes = engine.uplink_traffic().bytes;
        epoch_rates.push_back(static_cast<double>(bytes - epoch_start_bytes) /
                              static_cast<double>(kEpochTicks));
        epoch_start_bytes = bytes;
      }
    }

    const double bytes_per_tick =
        static_cast<double>(engine.uplink_traffic().bytes -
                            settle_start_bytes) /
        static_cast<double>((kEpochs - kSettleFrom) * kEpochTicks);
    EXPECT_LE(std::abs(bytes_per_tick / kBudget - 1.0), 0.10)
        << bytes_per_tick << " bytes/tick";
    EXPECT_LE(bytes_per_tick / kBudget - 1.0, 0.05) << "sustained overshoot";
    const int settle = SettleEpoch(epoch_rates, kBudget);
    EXPECT_LT(settle, kEpochs) << "budget never settled";
    EXPECT_LE(settle, row.recorded_settle + 6);
  }
}

TEST(GovernorChurnTest, BatchedReconfigureSpillsEachLaneAtMostOnce) {
  // The governor's installation path, pinned on a clean channel: one
  // batched ReconfigureSources call installs each changed delta on its
  // resident lane in place (no spill at all), re-issuing identical
  // deltas sends no control message, and a bad batch installs nothing.
  constexpr int kFleet = 8;
  ShardedStreamEngineOptions options;
  options.num_shards = 2;
  options.channel.seed = 7;
  options.batched_fleet = true;
  ShardedStreamEngine engine(options);
  for (int id = 1; id <= kFleet; ++id) {
    ASSERT_TRUE(engine.RegisterSource(id, ScalarModel(0.05)).ok());
    ContinuousQuery query;
    query.id = id;
    query.source_id = id;
    query.precision = 3.0;
    ASSERT_TRUE(engine.SubmitQuery(query).ok());
  }
  // One step onto a per-source level, then flat: every source settles
  // into suppression and its lane absorbs.
  std::map<int, Vector> readings;
  for (int id = 1; id <= kFleet; ++id) {
    readings[id] = Vector{5.0 + static_cast<double>(id)};
  }
  int64_t warmup = 0;
  while (engine.fleet_resident_count() < static_cast<size_t>(kFleet)) {
    ASSERT_LT(warmup++, 64) << "fleet never went fully resident";
    ASSERT_TRUE(engine.ProcessTick(readings).ok());
  }
  const int64_t spills_before = engine.fleet_spill_count();
  const int64_t controls_before = engine.control_messages();

  const std::vector<std::pair<int, double>> installs = {
      {2, 2.5}, {4, 2.5}, {5, 2.5}, {7, 2.5}};
  ASSERT_TRUE(engine.ReconfigureSources(installs).ok());
  EXPECT_EQ(engine.fleet_spill_count() - spills_before, 0);
  EXPECT_EQ(engine.control_messages() - controls_before, 4);
  for (const auto& [id, delta] : installs) {
    EXPECT_EQ(engine.source_delta(id).value(), delta) << id;
  }

  // Idempotent: identical deltas are skipped outright — no spill, no
  // control message (this is what makes cohort-stable governor epochs
  // free on the batched path).
  ASSERT_TRUE(engine.ReconfigureSources(installs).ok());
  EXPECT_EQ(engine.fleet_spill_count() - spills_before, 0);
  EXPECT_EQ(engine.control_messages() - controls_before, 4);

  // Validate-before-touch: one unknown id fails the whole batch with
  // nothing installed.
  const double delta_before = engine.source_delta(1).value();
  EXPECT_FALSE(
      engine.ReconfigureSources({{1, 9.0}, {kFleet + 99, 1.0}}).ok());
  EXPECT_EQ(engine.source_delta(1).value(), delta_before);
  EXPECT_EQ(engine.fleet_spill_count() - spills_before, 0);
}

}  // namespace
}  // namespace dkf
