// Memory layout of the batched fleet (src/fleet/, docs/fleet.md "Memory
// per source"): a resident source is stored once, as its lane plus a
// small node record, with its frozen-cycle fields shared through a
// refcounted per-group table. Absorbing a source frees its SourceNode;
// spilling it rebuilds one from the lane, the group's prototype and the
// record.
//
// The tests pin the bookkeeping (live nodes = tracked - resident and
// cold-record references = resident lanes, on every tick of a churn
// cocktail at every shard count), the sharing (a converged single-model
// fleet holds one cold record per shard and group), and the answers the
// shard gives from a lane in place of the freed node (delta, update
// count, resync flag, fault counters, noise servo, and the answers
// themselves, bit for bit), against a per-source twin.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "checkpoint/snapshot_io.h"
#include "common/binary_io.h"
#include "common/rng.h"
#include "models/model_factory.h"
#include "runtime/sharded_engine.h"

namespace dkf {
namespace {

constexpr int kNumSources = 24;
// Not an epoch boundary: the run ends with lanes resident.
constexpr int64_t kTicks = 328;
constexpr int kChurnQueryBase = 500;

StateModel ScalarModel(double process_variance) {
  ModelNoise noise;
  noise.process_variance = process_variance;
  noise.measurement_variance = 0.05;
  return MakeLinearModel(1, 1.0, noise).value();
}

StateModel PlanarModel() {
  ModelNoise noise;
  noise.process_variance = 0.02;
  noise.measurement_variance = 0.05;
  return MakeLinearModel(2, 1.0, noise).value();
}

bool IsPlanar(int id) { return id % 6 == 0; }

/// The churn cocktail: lossy, delaying, ACK-losing uplink until tick 250,
/// heartbeats, a staleness budget, a governor budget below demand, and
/// (optionally) the adaptive noise servo.
ShardedStreamEngineOptions CocktailOptions(int num_shards, bool batched,
                                           bool adaptive) {
  ShardedStreamEngineOptions options;
  options.num_shards = num_shards;
  options.batched_fleet = batched;
  options.channel.seed = 41;
  options.channel.drop_probability = 0.04;
  FaultModel fault;
  fault.gilbert_elliott = GilbertElliottLoss{0.03, 0.3, 0.0, 1.0};
  fault.delay = DelayModel{0, 1};
  fault.ack_loss_probability = 0.05;
  fault.active_until = 250;
  options.channel.fault = fault;
  options.protocol.heartbeat_interval = 12;
  options.protocol.staleness_budget = 20;
  options.protocol.resync_burst_retries = 3;
  options.protocol.resync_retry_backoff = 5;
  options.protocol.adaptive.enabled = adaptive;
  // A short lock streak, so servo-settled links fold within the run.
  options.protocol.adaptive.warmup_corrections = 2;
  options.protocol.adaptive.lock_streak = 3;
  options.governor.enabled = true;
  options.governor.epoch_ticks = 16;
  options.governor.budget_bytes_per_tick = 40.0;
  return options;
}

void Install(ShardedStreamEngine& engine) {
  for (int id = 1; id <= kNumSources; ++id) {
    const StateModel model =
        IsPlanar(id) ? PlanarModel() : ScalarModel(0.01 + 0.01 * (id % 3));
    ASSERT_TRUE(engine.RegisterSource(id, model).ok());
    ContinuousQuery query;
    query.id = id;
    query.source_id = id;
    query.precision = 2.0 + 0.5 * (id % 4);
    ASSERT_TRUE(engine.SubmitQuery(query).ok());
  }
}

std::map<int, Vector> Readings(int64_t tick) {
  const double t = static_cast<double>(tick);
  std::map<int, Vector> readings;
  for (int id = 1; id <= kNumSources; ++id) {
    // A slow drift with a level excursion every ~100 ticks per source.
    const double level = ((tick + 7 * id) / 100) % 2 == 0 ? 0.0 : 6.0;
    const double value = level + 0.03 * t + std::sin(0.05 * t + id);
    readings[id] = IsPlanar(id) ? Vector{value, -value} : Vector{value};
  }
  return readings;
}

/// Randomized query churn: every few ticks one source gets an extra,
/// tighter query or loses it again, spilling it for reconfiguration.
void ApplyChurn(ShardedStreamEngine& engine, int64_t tick, Rng& rng,
                std::vector<bool>& installed) {
  if (rng.Uniform() >= 0.2) return;
  const int id = 1 + static_cast<int>(rng.UniformInt(0, kNumSources - 1));
  const double precision = 0.5 + 3.0 * rng.Uniform();
  if (!installed[static_cast<size_t>(id)]) {
    ContinuousQuery query;
    query.id = kChurnQueryBase + id;
    query.source_id = id;
    query.precision = precision;
    ASSERT_TRUE(engine.SubmitQuery(query).ok()) << "tick " << tick;
  } else {
    ASSERT_TRUE(engine.RemoveQuery(kChurnQueryBase + id).ok())
        << "tick " << tick;
  }
  installed[static_cast<size_t>(id)] = !installed[static_cast<size_t>(id)];
}

TEST(FleetMemory, NodesAndColdRefsFollowResidencyOnEveryTick) {
  std::vector<std::vector<int64_t>> nodes_by_layout;
  for (int shards : {1, 2, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardedStreamEngine engine(
        CocktailOptions(shards, /*batched=*/true, /*adaptive=*/false));
    ASSERT_TRUE(engine.EnableTracing(ObsOptions()).ok());
    Install(engine);
    Rng rng(9);
    std::vector<bool> installed(kNumSources + 1, false);
    std::vector<int64_t> nodes_live;
    size_t max_resident = 0;
    for (int64_t t = 0; t < kTicks; ++t) {
      ApplyChurn(engine, t, rng, installed);
      ASSERT_TRUE(engine.ProcessTick(Readings(t)).ok()) << "tick " << t;
      const int64_t resident =
          static_cast<int64_t>(engine.fleet_resident_count());
      const FleetFootprint footprint = engine.fleet_footprint();
      ASSERT_EQ(footprint.nodes_live, kNumSources - resident) << "tick " << t;
      // One reference per end of each resident lane.
      ASSERT_EQ(footprint.cold_refs, 2 * resident) << "tick " << t;
      ASSERT_LE(footprint.cold_records, footprint.cold_refs) << "tick " << t;
      ASSERT_EQ(engine.FleetMetricsSnapshot().gauge("fleet.nodes_live"),
                static_cast<double>(footprint.nodes_live))
          << "tick " << t;
      nodes_live.push_back(footprint.nodes_live);
      max_resident = std::max(max_resident, static_cast<size_t>(resident));
    }
    EXPECT_GT(max_resident, 0u) << "nothing was ever absorbed";
    EXPECT_GT(engine.fleet_spill_count(), 0);
    EXPECT_GT(engine.governor()->epochs(), 0);
    // Every lane spilled frees its references, and every absorb takes one.
    EXPECT_TRUE(engine.VerifyLinkConsistency().ok());
    nodes_by_layout.push_back(std::move(nodes_live));
  }
  // Residency is a per-link property, so the live-node count is the
  // same at any shard count.
  EXPECT_EQ(nodes_by_layout[0], nodes_by_layout[1]);
  EXPECT_EQ(nodes_by_layout[0], nodes_by_layout[2]);
}

TEST(FleetMemory, ConvergedSingleModelFleetSharesOneColdRecordPerGroup) {
  constexpr int kFleet = 2000;
  constexpr int64_t kWarmup = 120;
  ModelNoise noise;
  noise.process_variance = 0.01;
  noise.measurement_variance = 0.05;
  const StateModel model = MakeLinearModel(1, 1.0, noise).value();
  for (int shards : {1, 2, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardedStreamEngineOptions options;
    options.num_shards = shards;
    options.batched_fleet = true;
    options.default_delta = 4.0;
    ShardedStreamEngine engine(options);
    ReadingBatch batch;
    for (int id = 0; id < kFleet; ++id) {
      ASSERT_TRUE(engine.RegisterSource(id, model).ok());
      batch.ids.push_back(id);
      batch.values.push_back(Vector{0.0});
    }
    for (int64_t t = 0; t < kWarmup; ++t) {
      // A slow signal inside delta around a level near the filters'
      // prior, as on a steady fleet: every source stays suppressed.
      for (int id = 0; id < kFleet; ++id) {
        batch.values[static_cast<size_t>(id)][0] =
            static_cast<double>(id % 200) / 100.0 - 1.0 +
            1.5 * std::sin(0.02 * static_cast<double>(t) + id);
      }
      ASSERT_TRUE(engine.ProcessTick(batch).ok()) << "tick " << t;
    }
    ASSERT_EQ(engine.fleet_resident_count(), static_cast<size_t>(kFleet));
    const FleetFootprint footprint = engine.fleet_footprint();
    EXPECT_EQ(footprint.nodes_live, 0);
    EXPECT_EQ(footprint.lane_groups, shards);
    EXPECT_EQ(footprint.cold_records, footprint.lane_groups);
    EXPECT_EQ(footprint.cold_refs, 2 * kFleet);  // one per end
    // A cold record is the flat cold segment plus six scalars, and its
    // own hash key.
    std::printf("shards=%d cold_bytes %lld for %lld records\n", shards,
                static_cast<long long>(footprint.cold_bytes),
                static_cast<long long>(footprint.cold_records));
    EXPECT_LE(footprint.cold_bytes, 512 * footprint.cold_records);
  }
}

/// Lanes of one group whose cold fields differ in a single scalar or
/// matrix bit must keep separate records: a shared record would hand one
/// lane the other's bits at its next spill or checkpoint. The states are
/// crafted in a snapshot (both link ends alike, so the link stays
/// bit-converged and folds) because no short run reaches every field.
TEST(FleetMemory, LanesDifferingInOneColdFieldKeepSeparateRecords) {
  ShardedStreamEngineOptions options;
  options.default_delta = 5.0;
  const std::map<int, Vector> quiet = {{1, Vector{0.0}}, {2, Vector{0.0}}};
  const std::string path = testing::TempDir() + "/memory_cold.dkfsnap";
  {
    ShardedStreamEngine engine(options);
    for (int id : {1, 2}) {
      ASSERT_TRUE(engine.RegisterSource(id, ScalarModel(0.01)).ok());
    }
    for (int64_t t = 0; t < 5; ++t) ASSERT_TRUE(engine.ProcessTick(quiet).ok());
    ASSERT_TRUE(engine.Save(path).ok());
  }
  const EngineSnapshot base = LoadSnapshotFile(path).value();
  ASSERT_EQ(base.sources.size(), 2u);

  // Negation flips the sign bit, so a 0.0 entry becomes -0.0.
  using Edit = std::function<void(KalmanFilter::FullState&)>;
  const std::vector<std::pair<std::string, Edit>> edits = {
      {"none", [](auto&) {}},
      {"ss_streak1", [](auto& f) { ++f.ss_streak1; }},
      {"ss_streak2", [](auto& f) { ++f.ss_streak2; }},
      {"ss_have_prev", [](auto& f) { f.ss_have_prev ^= 1; }},
      {"ss_pending_priors", [](auto& f) { ++f.ss_pending_priors; }},
      {"ss_capture_idx", [](auto& f) { f.ss_capture_idx ^= 1; }},
      {"ss_prev_gain", [](auto& f) { f.ss_prev_gain(0, 0) *= -1.0; }},
      {"ss_prev_post[1]", [](auto& f) { f.ss_prev_post[1](0, 0) *= -1.0; }},
      {"ss_gain[1]", [](auto& f) { f.ss_gain[1](0, 0) *= -1.0; }},
      {"ss_prior_p[1]", [](auto& f) { f.ss_prior_p[1](0, 0) *= -1.0; }},
      {"ss_post_p[1]", [](auto& f) { f.ss_post_p[1](0, 0) *= -1.0; }},
  };
  for (const auto& [name, edit] : edits) {
    SCOPED_TRACE(name);
    EngineSnapshot snapshot = base;
    edit(snapshot.sources[1].node.mirror);
    edit(snapshot.sources[1].link.predictor);
    ASSERT_TRUE(SaveSnapshotFile(snapshot, path).ok());
    auto batched = ShardedStreamEngine::Restore(path, 1, /*batched=*/true);
    auto twin = ShardedStreamEngine::Restore(path, 1, /*batched=*/false);
    ASSERT_TRUE(batched.ok()) << batched.status().message();
    ASSERT_TRUE(twin.ok()) << twin.status().message();
    ASSERT_TRUE(batched.value()->ProcessTick(quiet).ok());
    ASSERT_TRUE(twin.value()->ProcessTick(quiet).ok());
    ASSERT_EQ(batched.value()->fleet_resident_count(), 2u);
    EXPECT_EQ(batched.value()->fleet_footprint().cold_records,
              name == "none" ? 1 : 2);
    const std::string batched_path = path + ".batched";
    const std::string twin_path = path + ".twin";
    ASSERT_TRUE(batched.value()->Save(batched_path).ok());
    ASSERT_TRUE(twin.value()->Save(twin_path).ok());
    EXPECT_EQ(ReadFileBytes(batched_path).value(),
              ReadFileBytes(twin_path).value());
  }
}

/// Lanes share a group only when their models agree on every field the
/// snapshot encodes for a StateModel: a checkpoint writes a resident
/// source's recipe from its group, so two models that differ in one
/// encoded field must never share one. Each variant differs from the
/// base model in exactly one such field.
TEST(FleetMemory, ModelsDifferingInOneEncodedFieldGetTheirOwnGroup) {
  const StateModel base = ScalarModel(0.01);
  auto nudge = [](double& value) { value = std::nextafter(value, 1e300); };
  using Edit = std::function<void(StateModel&)>;
  const std::vector<std::pair<std::string, Edit>> edits = {
      {"none", [](StateModel&) {}},
      {"name", [](StateModel& m) { m.name += "'"; }},
      {"measurement_dim", [](StateModel& m) { ++m.measurement_dim; }},
      {"phi", [&](StateModel& m) { nudge(m.options.transition(0, 0)); }},
      {"H", [&](StateModel& m) { nudge(m.options.measurement(0, 0)); }},
      {"Q", [&](StateModel& m) { nudge(m.options.process_noise(0, 0)); }},
      {"R", [&](StateModel& m) { nudge(m.options.measurement_noise(0, 0)); }},
      {"x0", [&](StateModel& m) { nudge(m.options.initial_state[0]); }},
      {"P0",
       [&](StateModel& m) { nudge(m.options.initial_covariance(0, 0)); }},
      {"fast_path",
       [](StateModel& m) {
         m.options.steady_state_fast_path = !m.options.steady_state_fast_path;
       }},
      {"tolerance",
       [&](StateModel& m) { nudge(m.options.steady_state_tolerance); }},
  };
  const std::map<int, Vector> quiet = {{1, Vector{0.0}}, {2, Vector{0.0}}};
  for (const auto& [name, edit] : edits) {
    SCOPED_TRACE(name);
    StateModel variant = base;
    edit(variant);
    ShardedStreamEngineOptions options;
    options.batched_fleet = true;
    ShardedStreamEngine engine(options);
    ASSERT_TRUE(engine.RegisterSource(1, base).ok());
    ASSERT_TRUE(engine.RegisterSource(2, variant).ok());
    for (int64_t t = 0; t < 5; ++t) ASSERT_TRUE(engine.ProcessTick(quiet).ok());
    ASSERT_EQ(engine.fleet_resident_count(), 2u);
    EXPECT_EQ(engine.fleet_footprint().lane_groups, name == "none" ? 1 : 2);
  }
}

/// Source `id`'s answers, bit for bit: every component of Answer, and
/// AnswerWithConfidence's value, covariance bytes (so -0.0 and NaN
/// payloads show) and degraded flag, and answer_degraded.
void ExpectSameAnswers(const ShardedStreamEngine& batched,
                       const ShardedStreamEngine& twin, int id, int64_t t) {
  SCOPED_TRACE("tick " + std::to_string(t) + " source " + std::to_string(id));
  const Vector answer = batched.Answer(id).value();
  const Vector twin_answer = twin.Answer(id).value();
  ASSERT_EQ(answer.size(), twin_answer.size());
  for (size_t c = 0; c < answer.size(); ++c) {
    EXPECT_EQ(answer[c], twin_answer[c]) << "component " << c;
  }
  const ServerNode::ConfidentAnswer confident =
      batched.AnswerWithConfidence(id).value();
  const ServerNode::ConfidentAnswer twin_confident =
      twin.AnswerWithConfidence(id).value();
  ASSERT_EQ(confident.value.size(), twin_confident.value.size());
  for (size_t c = 0; c < confident.value.size(); ++c) {
    EXPECT_EQ(confident.value[c], twin_confident.value[c]) << "component " << c;
  }
  ASSERT_TRUE(confident.covariance.has_value());
  ASSERT_TRUE(twin_confident.covariance.has_value());
  const Matrix& covariance = *confident.covariance;
  const Matrix& twin_covariance = *twin_confident.covariance;
  ASSERT_EQ(covariance.rows(), twin_covariance.rows());
  ASSERT_EQ(covariance.cols(), twin_covariance.cols());
  EXPECT_EQ(std::memcmp(covariance.data(), twin_covariance.data(),
                        covariance.rows() * covariance.cols() *
                            sizeof(double)),
            0)
      << covariance.ToString() << " vs " << twin_covariance.ToString();
  EXPECT_EQ(confident.degraded, twin_confident.degraded);
  EXPECT_EQ(batched.answer_degraded(id).value(),
            twin.answer_degraded(id).value());
}

/// Every per-source fact the shard answers from a lane must equal what
/// the per-source twin's node says, tick by tick, answers included; the
/// checkpoints (which carry each source's fault counters and servo
/// state) must be byte-identical.
void ExpectResidentAnswersMatchTwin(bool adaptive) {
  ShardedStreamEngine twin(
      CocktailOptions(2, /*batched=*/false, adaptive));
  ShardedStreamEngine batched(
      CocktailOptions(2, /*batched=*/true, adaptive));
  ASSERT_TRUE(twin.EnableTracing(ObsOptions()).ok());
  ASSERT_TRUE(batched.EnableTracing(ObsOptions()).ok());
  Install(twin);
  Install(batched);
  Rng twin_rng(9);
  Rng batched_rng(9);
  std::vector<bool> twin_installed(kNumSources + 1, false);
  std::vector<bool> batched_installed(kNumSources + 1, false);
  int resident_answers = 0;
  int degraded_resident_answers = 0;
  int resident_checks = 0;
  int resident_fault_checks = 0;
  const std::string twin_path = testing::TempDir() + "/memory_twin.dkfsnap";
  const std::string batched_path =
      testing::TempDir() + "/memory_batched.dkfsnap";
  for (int64_t t = 0; t < kTicks; ++t) {
    ApplyChurn(twin, t, twin_rng, twin_installed);
    ApplyChurn(batched, t, batched_rng, batched_installed);
    ASSERT_TRUE(twin.ProcessTick(Readings(t)).ok()) << "tick " << t;
    ASSERT_TRUE(batched.ProcessTick(Readings(t)).ok()) << "tick " << t;
    for (int id = 1; id <= kNumSources; ++id) {
      ASSERT_EQ(batched.source_delta(id).value(),
                twin.source_delta(id).value())
          << "tick " << t << " source " << id;
      ASSERT_EQ(batched.updates_sent(id).value(),
                twin.updates_sent(id).value())
          << "tick " << t << " source " << id;
      ASSERT_EQ(batched.resync_pending(id).value(),
                twin.resync_pending(id).value())
          << "tick " << t << " source " << id;
      ExpectSameAnswers(batched, twin, id, t);
      if (batched.fleet_resident(id).value()) {
        ++resident_answers;
        if (batched.answer_degraded(id).value()) ++degraded_resident_answers;
      }
    }
    ASSERT_TRUE(batched.fault_stats() == twin.fault_stats()) << "tick " << t;
    if (t % 10 != 9 || batched.fleet_resident_count() == 0) continue;
    // MetricsSnapshot carries the per-source servo gauges, read from the
    // lane's record while resident.
    ASSERT_TRUE(batched.MetricsSnapshot() == twin.MetricsSnapshot())
        << "tick " << t;
    ASSERT_TRUE(batched.Save(batched_path).ok());
    ASSERT_TRUE(twin.Save(twin_path).ok());
    ASSERT_EQ(ReadFileBytes(batched_path).value(),
              ReadFileBytes(twin_path).value())
        << "tick " << t;
    // The comparisons only prove something if resident sources carried
    // non-zero fault counters in their records: when more sources have
    // some than there are live nodes, at least one of them is resident.
    const EngineSnapshot snapshot = LoadSnapshotFile(batched_path).value();
    int64_t with_faults = 0;
    for (const SourceSnapshot& source : snapshot.sources) {
      if (!(source.node.faults == ProtocolFaultStats())) ++with_faults;
    }
    ++resident_checks;
    if (with_faults > batched.fleet_footprint().nodes_live) {
      ++resident_fault_checks;
    }
  }
  EXPECT_GT(resident_answers, 0) << "no answer came from a lane";
  EXPECT_GT(degraded_resident_answers, 0)
      << "no lane answered degraded";
  EXPECT_GT(resident_checks, 0) << "no lane was resident at a check";
  EXPECT_GT(resident_fault_checks, 0)
      << "no check saw fault counters held only by a lane's record";
}

TEST(FleetMemory, ResidentAnswersMatchPerSourceTwin) {
  ExpectResidentAnswersMatchTwin(/*adaptive=*/false);
}

TEST(FleetMemory, AdaptiveResidentAnswersMatchPerSourceTwin) {
  ExpectResidentAnswersMatchTwin(/*adaptive=*/true);
}

}  // namespace
}  // namespace dkf
