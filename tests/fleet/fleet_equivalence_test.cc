// Equivalence harness for the batched fleet engine (src/fleet/,
// docs/fleet.md): the same workload is driven through a per-source
// reference engine and through batched engines at 1/2/4/8 shards, and
// every observable must be bit-identical on every tick — answers,
// degraded flags, pending-resync flags — plus, at the end, fault
// counters, uplink accounting, per-source update totals, the merged
// trace, the metrics snapshot, and the checkpoint bytes. Two scenarios:
// a clean suppression-heavy run (where most sources should actually be
// batch-resident) and the chaos cocktail from the fault-tolerance
// harness (where sources continuously spill and re-enter).

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "metrics/fault_stats.h"
#include "models/model_factory.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "runtime/sharded_engine.h"

namespace dkf {
namespace {

constexpr int kNumSources = 12;
constexpr int64_t kTicks = 400;
constexpr int kAggregateId = 7;

StateModel ScalarModel(double process_variance) {
  ModelNoise noise;
  noise.process_variance = process_variance;
  noise.measurement_variance = 0.05;
  return MakeLinearModel(1, 1.0, noise).value();
}

ChannelOptions CleanChannel() {
  ChannelOptions options;
  options.seed = 77;
  options.per_source_rng = true;
  return options;
}

ChannelOptions ChaosChannel() {
  ChannelOptions options = CleanChannel();
  options.drop_probability = 0.1;
  FaultModel fault;
  fault.gilbert_elliott = GilbertElliottLoss{
      /*p_good_to_bad=*/0.05, /*p_bad_to_good=*/0.3,
      /*good_loss=*/0.0, /*bad_loss=*/1.0};
  fault.delay = DelayModel{/*min_ticks=*/0, /*max_ticks=*/1};
  fault.outages.push_back(OutageWindow{/*start=*/100, /*end=*/115});
  fault.ack_loss_probability = 0.05;
  fault.corruption_probability = 0.03;
  fault.active_until = 280;
  options.fault = fault;
  return options;
}

ProtocolOptions ChaosProtocol() {
  ProtocolOptions protocol;
  protocol.heartbeat_interval = 8;
  protocol.staleness_budget = 16;
  protocol.resync_burst_retries = 4;
  protocol.resync_retry_backoff = 6;
  return protocol;
}

struct Scenario {
  ChannelOptions channel;
  ProtocolOptions protocol;
  /// Query precision scale — large deltas make the run
  /// suppression-heavy, which is the batched engine's home turf.
  double precision = 4.0;
};

Scenario CleanScenario() {
  Scenario s;
  s.channel = CleanChannel();
  return s;
}

Scenario ChaosScenario() {
  Scenario s;
  s.channel = ChaosChannel();
  s.protocol = ChaosProtocol();
  return s;
}

ShardedStreamEngineOptions EngineOptions(const Scenario& scenario,
                                         int num_shards, bool batched) {
  ShardedStreamEngineOptions options;
  options.num_shards = num_shards;
  options.channel = scenario.channel;
  options.protocol = scenario.protocol;
  options.batched_fleet = batched;
  return options;
}

void InstallWorkload(ShardedStreamEngine& engine, const Scenario& scenario) {
  ObsOptions obs;
  obs.ring_capacity = 1 << 18;  // must hold the full run for bit compares
  ASSERT_TRUE(engine.EnableTracing(obs).ok());
  for (int id = 1; id <= kNumSources; ++id) {
    ASSERT_TRUE(
        engine.RegisterSource(id, ScalarModel(0.02 + 0.01 * (id % 4))).ok());
    ContinuousQuery query;
    query.id = id;
    query.source_id = id;
    query.precision = scenario.precision + 0.5 * (id % 3);
    ASSERT_TRUE(engine.SubmitQuery(query).ok());
  }
  // One smoothed source: KF_c keeps it permanently on the per-source
  // path (the batch only folds plain mirror/predictor pairs), proving
  // the two populations coexist.
  ContinuousQuery smoothed;
  smoothed.id = 100;
  smoothed.source_id = 3;
  smoothed.precision = 2.0;
  smoothed.smoothing_factor = 0.5;
  ASSERT_TRUE(engine.SubmitQuery(smoothed).ok());
  AggregateQuery aggregate;
  aggregate.id = kAggregateId;
  aggregate.source_ids = {2, 5, 8, 9};
  aggregate.precision = 8.0;
  ASSERT_TRUE(engine.SubmitAggregateQuery(aggregate).ok());
}

std::vector<std::map<int, Vector>> MakeReadings() {
  std::vector<std::map<int, Vector>> readings;
  Rng rng(91);
  std::vector<double> values(kNumSources + 1, 0.0);
  for (int64_t t = 0; t < kTicks; ++t) {
    std::map<int, Vector> tick;
    for (int id = 1; id <= kNumSources; ++id) {
      values[static_cast<size_t>(id)] += rng.Gaussian(0.05 * (id % 3), 0.7);
      tick[id] = Vector{values[static_cast<size_t>(id)]};
    }
    readings.push_back(std::move(tick));
  }
  return readings;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string SnapshotPath(const std::string& name) {
  return testing::TempDir() + "/" + name + ".dkfsnap";
}

/// Everything the reference run observed, captured once per scenario.
struct Reference {
  std::vector<std::map<int, Vector>> readings;
  std::vector<std::vector<double>> answers;    // [tick][id-1]
  std::vector<std::vector<bool>> degraded;     // [tick][id-1]
  std::vector<std::vector<bool>> pending;      // [tick][id-1]
  std::vector<double> aggregate;               // [tick]
  ProtocolFaultStats faults;
  ChannelStats uplink;
  std::vector<int64_t> updates;                // [id-1]
  std::vector<TraceEvent> trace;
  MetricsRegistry metrics;
  std::string snapshot_bytes;
};

Reference BuildReference(const Scenario& scenario, const std::string& name) {
  Reference ref;
  ref.readings = MakeReadings();
  ShardedStreamEngine engine(EngineOptions(scenario, 1, /*batched=*/false));
  InstallWorkload(engine, scenario);
  for (int64_t t = 0; t < kTicks; ++t) {
    EXPECT_TRUE(engine.ProcessTick(ref.readings[static_cast<size_t>(t)]).ok())
        << "tick " << t;
    std::vector<double> answers;
    std::vector<bool> degraded;
    std::vector<bool> pending;
    for (int id = 1; id <= kNumSources; ++id) {
      answers.push_back(engine.Answer(id).value()[0]);
      degraded.push_back(engine.answer_degraded(id).value());
      pending.push_back(engine.resync_pending(id).value());
    }
    ref.answers.push_back(std::move(answers));
    ref.degraded.push_back(std::move(degraded));
    ref.pending.push_back(std::move(pending));
    ref.aggregate.push_back(
        engine.AnswerAggregateCanonical(kAggregateId).value());
  }
  ref.faults = engine.fault_stats();
  ref.uplink = engine.uplink_traffic();
  for (int id = 1; id <= kNumSources; ++id) {
    ref.updates.push_back(engine.updates_sent(id).value());
  }
  ref.trace = engine.MergedTrace();
  ref.metrics = engine.MetricsSnapshot();
  EXPECT_GT(ref.trace.size(), 0u);
  EXPECT_EQ(engine.shard_sink(0)->dropped_events(), 0)
      << "ring too small for exact trace comparisons";
  const std::string path = SnapshotPath(name + "_reference");
  EXPECT_TRUE(engine.Save(path).ok());
  ref.snapshot_bytes = ReadFile(path);
  EXPECT_FALSE(ref.snapshot_bytes.empty());
  std::remove(path.c_str());
  return ref;
}

const Reference& CleanReference() {
  static const Reference* const ref =
      new Reference(BuildReference(CleanScenario(), "clean"));
  return *ref;
}

const Reference& ChaosReference() {
  static const Reference* const ref =
      new Reference(BuildReference(ChaosScenario(), "chaos"));
  return *ref;
}

void ExpectBatchedIdentical(const Scenario& scenario, const Reference& ref,
                            int num_shards, const std::string& name,
                            bool expect_residents) {
  SCOPED_TRACE(name + " shards=" + std::to_string(num_shards));
  ShardedStreamEngine engine(
      EngineOptions(scenario, num_shards, /*batched=*/true));
  InstallWorkload(engine, scenario);
  size_t max_residents = 0;
  for (int64_t t = 0; t < kTicks; ++t) {
    ASSERT_TRUE(engine.ProcessTick(ref.readings[static_cast<size_t>(t)]).ok())
        << "tick " << t;
    max_residents = std::max(max_residents, engine.fleet_resident_count());
    const auto& answers = ref.answers[static_cast<size_t>(t)];
    const auto& degraded = ref.degraded[static_cast<size_t>(t)];
    const auto& pending = ref.pending[static_cast<size_t>(t)];
    for (int id = 1; id <= kNumSources; ++id) {
      ASSERT_EQ(engine.Answer(id).value()[0],
                answers[static_cast<size_t>(id - 1)])
          << "tick " << t << " source " << id;
      ASSERT_EQ(engine.answer_degraded(id).value(),
                degraded[static_cast<size_t>(id - 1)])
          << "tick " << t << " source " << id;
      ASSERT_EQ(engine.resync_pending(id).value(),
                pending[static_cast<size_t>(id - 1)])
          << "tick " << t << " source " << id;
    }
    // Member-order summation is layout-invariant, so the aggregate must
    // be bit-equal, not merely close.
    ASSERT_EQ(engine.AnswerAggregateCanonical(kAggregateId).value(),
              ref.aggregate[static_cast<size_t>(t)])
        << "tick " << t;
    if (t % 50 == 0 || t == kTicks - 1) {
      ASSERT_TRUE(engine.VerifyLinkConsistency().ok()) << "tick " << t;
    }
  }
  if (expect_residents) {
    EXPECT_GT(max_residents, 0u)
        << "batched engine never absorbed anything — the whole run took "
           "the per-source path, so the test proved nothing";
  }

  const ProtocolFaultStats faults = engine.fault_stats();
  EXPECT_EQ(faults.divergence_events, ref.faults.divergence_events);
  EXPECT_EQ(faults.resyncs_sent, ref.faults.resyncs_sent);
  EXPECT_EQ(faults.resyncs_applied, ref.faults.resyncs_applied);
  EXPECT_EQ(faults.heartbeats_sent, ref.faults.heartbeats_sent);
  EXPECT_EQ(faults.heartbeats_received, ref.faults.heartbeats_received);
  EXPECT_EQ(faults.ambiguous_acks, ref.faults.ambiguous_acks);
  EXPECT_EQ(faults.ticks_diverged, ref.faults.ticks_diverged);
  EXPECT_EQ(faults.max_recovery_ticks, ref.faults.max_recovery_ticks);
  EXPECT_EQ(faults.rejected_stale, ref.faults.rejected_stale);
  EXPECT_EQ(faults.rejected_corrupt, ref.faults.rejected_corrupt);
  EXPECT_EQ(faults.sequence_gaps, ref.faults.sequence_gaps);
  EXPECT_EQ(faults.degraded_ticks, ref.faults.degraded_ticks);

  const ChannelStats uplink = engine.uplink_traffic();
  EXPECT_EQ(uplink.messages, ref.uplink.messages);
  EXPECT_EQ(uplink.bytes, ref.uplink.bytes);
  EXPECT_EQ(uplink.dropped, ref.uplink.dropped);
  EXPECT_EQ(uplink.corrupted, ref.uplink.corrupted);
  EXPECT_EQ(uplink.delayed, ref.uplink.delayed);
  EXPECT_EQ(uplink.ack_lost, ref.uplink.ack_lost);
  EXPECT_EQ(uplink.outage_dropped, ref.uplink.outage_dropped);

  for (int id = 1; id <= kNumSources; ++id) {
    EXPECT_EQ(engine.updates_sent(id).value(),
              ref.updates[static_cast<size_t>(id - 1)])
        << "source " << id;
  }

  EXPECT_TRUE(engine.MergedTrace() == ref.trace) << "merged trace differs";
  EXPECT_TRUE(engine.MetricsSnapshot() == ref.metrics)
      << "metrics snapshot differs";
  EXPECT_TRUE(engine.VerifyMirrorConsistency().ok());

  // Checkpoint bytes are engine-agnostic: a batch-resident source's
  // snapshot is synthesized from its lane and must match a per-source
  // run's byte for byte. The twin must run at the same shard count —
  // the snapshot header records it.
  ShardedStreamEngine twin(
      EngineOptions(scenario, num_shards, /*batched=*/false));
  InstallWorkload(twin, scenario);
  for (int64_t t = 0; t < kTicks; ++t) {
    ASSERT_TRUE(twin.ProcessTick(ref.readings[static_cast<size_t>(t)]).ok());
  }
  const std::string path =
      SnapshotPath(name + "_batched_" + std::to_string(num_shards));
  const std::string twin_path =
      SnapshotPath(name + "_twin_" + std::to_string(num_shards));
  ASSERT_TRUE(engine.Save(path).ok());
  ASSERT_TRUE(twin.Save(twin_path).ok());
  EXPECT_EQ(ReadFile(path), ReadFile(twin_path)) << "snapshot bytes differ";
  std::remove(path.c_str());
  std::remove(twin_path.c_str());
}

TEST(FleetEquivalence, CleanSuppressionHeavyAllShardCounts) {
  const Reference& ref = CleanReference();
  for (int shards : {1, 2, 4, 8}) {
    ExpectBatchedIdentical(CleanScenario(), ref, shards, "clean",
                           /*expect_residents=*/true);
  }
}

TEST(FleetEquivalence, ChaosCocktailAllShardCounts) {
  const Reference& ref = ChaosReference();
  for (int shards : {1, 2, 4, 8}) {
    ExpectBatchedIdentical(ChaosScenario(), ref, shards, "chaos",
                           /*expect_residents=*/true);
  }
}

// The batch overload must be bit-identical to the map overload, batched
// engine or not (the non-fleet shard projects the batch into a map).
TEST(FleetEquivalence, ReadingBatchOverloadMatchesMap) {
  const Reference& ref = CleanReference();
  const Scenario scenario = CleanScenario();
  for (const bool batched : {false, true}) {
    SCOPED_TRACE(batched ? "batched" : "per-source");
    ShardedStreamEngine engine(EngineOptions(scenario, 2, batched));
    InstallWorkload(engine, scenario);
    ReadingBatch batch;
    for (int64_t t = 0; t < 120; ++t) {
      batch.ids.clear();
      batch.values.clear();
      for (const auto& [id, value] : ref.readings[static_cast<size_t>(t)]) {
        batch.ids.push_back(id);
        batch.values.push_back(value);
      }
      ASSERT_TRUE(engine.ProcessTick(batch).ok()) << "tick " << t;
      const auto& answers = ref.answers[static_cast<size_t>(t)];
      for (int id = 1; id <= kNumSources; ++id) {
        ASSERT_EQ(engine.Answer(id).value()[0],
                  answers[static_cast<size_t>(id - 1)])
            << "tick " << t << " source " << id;
      }
    }
  }
}

// Restoring a per-source snapshot onto the batched engine (and the other
// way round) must continue bit-identically to the reference run.
TEST(FleetEquivalence, RestoreAcrossEngineKinds) {
  const Reference& ref = ChaosReference();
  const Scenario scenario = ChaosScenario();
  constexpr int64_t kSnapTick = 110;  // inside the outage window

  ShardedStreamEngine engine(
      EngineOptions(scenario, 2, /*batched=*/true));
  InstallWorkload(engine, scenario);
  for (int64_t t = 0; t < kSnapTick; ++t) {
    ASSERT_TRUE(
        engine.ProcessTick(ref.readings[static_cast<size_t>(t)]).ok());
  }
  const std::string path = SnapshotPath("cross_engine");
  ASSERT_TRUE(engine.Save(path).ok());

  for (const bool batched : {false, true}) {
    SCOPED_TRACE(batched ? "restore batched" : "restore per-source");
    auto restored_or = ShardedStreamEngine::Restore(path, /*num_shards=*/4,
                                                    batched);
    ASSERT_TRUE(restored_or.ok()) << restored_or.status().message();
    ShardedStreamEngine& restored = *restored_or.value();
    ASSERT_EQ(restored.ticks(), kSnapTick);
    for (int64_t t = kSnapTick; t < kTicks; ++t) {
      ASSERT_TRUE(
          restored.ProcessTick(ref.readings[static_cast<size_t>(t)]).ok())
          << "tick " << t;
      const auto& answers = ref.answers[static_cast<size_t>(t)];
      const auto& degraded = ref.degraded[static_cast<size_t>(t)];
      for (int id = 1; id <= kNumSources; ++id) {
        ASSERT_EQ(restored.Answer(id).value()[0],
                  answers[static_cast<size_t>(id - 1)])
            << "tick " << t << " source " << id;
        ASSERT_EQ(restored.answer_degraded(id).value(),
                  degraded[static_cast<size_t>(id - 1)])
            << "tick " << t << " source " << id;
      }
    }
    EXPECT_TRUE(restored.MergedTrace() == ref.trace)
        << "merged trace differs after restore";
    const ProtocolFaultStats faults = restored.fault_stats();
    EXPECT_EQ(faults.degraded_ticks, ref.faults.degraded_ticks);
    EXPECT_EQ(faults.resyncs_applied, ref.faults.resyncs_applied);
  }
  std::remove(path.c_str());
}

// On a suppression-heavy dim-1 fleet nearly every source must end the
// run resident on a lane: a fleet that quietly spills back to the
// per-source path would keep every equivalence above green while the
// batched engine did no work.
TEST(FleetEquivalence, SuppressionHeavyFleetStaysResident) {
  constexpr int kFleet = 2000;
  constexpr int kRunTicks = 132;
  ShardedStreamEngineOptions options;
  options.batched_fleet = true;
  ShardedStreamEngine engine(options);
  ReadingBatch batch;
  for (int id = 0; id < kFleet; ++id) {
    ASSERT_TRUE(engine.RegisterSource(id, ScalarModel(0.05)).ok());
    ContinuousQuery query;
    query.id = id + 1;
    query.source_id = id;
    query.precision = 4.0;
    ASSERT_TRUE(engine.SubmitQuery(query).ok());
    batch.ids.push_back(id);
    batch.values.push_back(Vector{0.0});
  }
  for (int t = 0; t < kRunTicks; ++t) {
    // A slow sinusoid whose 3.0 peak-to-peak swing stays inside delta,
    // so converged filters suppress indefinitely.
    for (size_t i = 0; i < batch.ids.size(); ++i) {
      const int id = batch.ids[i];
      batch.values[i][0] =
          1.5 * std::sin((0.02 + 0.00001 * (id % 97)) * t + 0.37 * id) +
          0.001 * t;
    }
    ASSERT_TRUE(engine.ProcessTick(batch).ok()) << "tick " << t;
  }
  EXPECT_GE(static_cast<double>(engine.fleet_resident_count()),
            0.90 * kFleet);
}

}  // namespace
}  // namespace dkf
