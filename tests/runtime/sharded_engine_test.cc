#include "runtime/sharded_engine.h"

#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "models/model_factory.h"
#include "runtime/shard.h"

namespace dkf {
namespace {

StateModel ScalarModel(double process_variance = 0.05) {
  ModelNoise noise;
  noise.process_variance = process_variance;
  noise.measurement_variance = 0.05;
  return MakeLinearModel(1, 1.0, noise).value();
}

StateModel PlanarModel() {
  ModelNoise noise;
  noise.process_variance = 0.05;
  noise.measurement_variance = 0.05;
  return MakeLinearModel(2, 1.0, noise).value();
}

ContinuousQuery MakeQuery(int id, int source, double precision) {
  ContinuousQuery query;
  query.id = id;
  query.source_id = source;
  query.precision = precision;
  return query;
}

constexpr int kNumScalarSources = 12;
constexpr int kPlanarSourceId = 100;

/// Installs the shared multi-source, multi-query workload: 12 scalar
/// sources with varied dynamics, point queries of different precisions,
/// a smoothing query, an aggregate over a shard-spanning subset, plus
/// one 2-D source outside the aggregate.
void InstallWorkload(ShardedStreamEngine& system) {
  for (int id = 1; id <= kNumScalarSources; ++id) {
    ASSERT_TRUE(
        system.RegisterSource(id, ScalarModel(0.02 + 0.01 * (id % 4))).ok());
  }
  ASSERT_TRUE(system.RegisterSource(kPlanarSourceId, PlanarModel()).ok());

  for (int id = 1; id <= kNumScalarSources; ++id) {
    ASSERT_TRUE(
        system.SubmitQuery(MakeQuery(id, id, 1.0 + 0.5 * (id % 5))).ok());
  }
  ContinuousQuery smoothing = MakeQuery(50, 3, 4.0);
  smoothing.smoothing_factor = 1e-3;
  ASSERT_TRUE(system.SubmitQuery(smoothing).ok());
  ASSERT_TRUE(system.SubmitQuery(MakeQuery(51, kPlanarSourceId, 2.0)).ok());

  AggregateQuery aggregate;
  aggregate.id = 7;
  aggregate.source_ids = {2, 5, 8, 11};  // spans shards for any count > 1
  aggregate.precision = 8.0;
  ASSERT_TRUE(system.SubmitAggregateQuery(aggregate, {1.0, 2.0, 1.0, 2.0})
                  .ok());
}

/// One deterministic tick batch: drifting random walks for the scalars,
/// a slow circle for the planar source.
std::map<int, Vector> TickReadings(Rng& rng, int tick,
                                   std::vector<double>& values) {
  std::map<int, Vector> readings;
  for (int id = 1; id <= kNumScalarSources; ++id) {
    values[static_cast<size_t>(id)] += rng.Gaussian(0.05 * (id % 3), 0.8);
    readings[id] = Vector{values[static_cast<size_t>(id)]};
  }
  const double angle = 0.01 * tick;
  readings[kPlanarSourceId] =
      Vector{40.0 * std::cos(angle), 40.0 * std::sin(angle)};
  return readings;
}

/// Drives `system` through `ticks` deterministic ticks (seed-pinned
/// readings, query churn mid-stream); observers inspect the system
/// afterwards or via `on_tick`.
template <typename OnTick>
void DriveWorkload(ShardedStreamEngine& system, int ticks, OnTick on_tick) {
  Rng rng(42);
  std::vector<double> values(kNumScalarSources + 1, 0.0);
  for (int t = 0; t < ticks; ++t) {
    // Query churn mid-stream exercises reconfiguration on every layout.
    if (t == 120) {
      ASSERT_TRUE(system.SubmitQuery(MakeQuery(60, 6, 0.5)).ok());
    }
    if (t == 240) {
      ASSERT_TRUE(system.RemoveQuery(60).ok());
    }
    ASSERT_TRUE(system.ProcessTick(TickReadings(rng, t, values)).ok());
    on_tick(t);
  }
}

TEST(ShardedStreamEngineTest, DefaultsToOneShard) {
  ShardedStreamEngine engine{ShardedStreamEngineOptions{}};
  EXPECT_EQ(engine.num_shards(), 1);
}

TEST(ShardedStreamEngineTest, BitExactEquivalenceWithSingleShard) {
  // The single-shard engine runs every source on the driver thread in
  // ascending id order: the sequential reference every layout matches.
  auto run = [](int shards) {
    ShardedStreamEngineOptions options;
    options.num_shards = shards;
    auto engine = std::make_unique<ShardedStreamEngine>(options);
    InstallWorkload(*engine);
    EXPECT_EQ(engine->num_shards(), shards);
    return engine;
  };
  auto reference = run(1);
  std::vector<std::unique_ptr<ShardedStreamEngine>> engines;
  for (int shards : {2, 4, 8}) engines.push_back(run(shards));

  // Drive every layout in lockstep on identical readings and churn.
  Rng rng(42);
  std::vector<double> values(kNumScalarSources + 1, 0.0);
  for (int t = 0; t < 400; ++t) {
    const std::map<int, Vector> readings = TickReadings(rng, t, values);
    std::vector<ShardedStreamEngine*> systems = {reference.get()};
    for (const auto& engine : engines) systems.push_back(engine.get());
    for (ShardedStreamEngine* system : systems) {
      if (t == 120) {
        ASSERT_TRUE(system->SubmitQuery(MakeQuery(60, 6, 0.5)).ok());
      }
      if (t == 240) {
        ASSERT_TRUE(system->RemoveQuery(60).ok());
      }
      ASSERT_TRUE(system->ProcessTick(readings).ok());
    }
    if (t % 37 != 0 && t != 399) continue;
    for (const auto& engine : engines) {
      const int shards = engine->num_shards();
      for (int id = 1; id <= kNumScalarSources; ++id) {
        auto seq = reference->Answer(id);
        auto par = engine->Answer(id);
        ASSERT_TRUE(seq.ok() && par.ok());
        // Bit-exact: identical per-source filter call sequences.
        ASSERT_EQ(seq.value()[0], par.value()[0])
            << "shards=" << shards << " source=" << id << " tick=" << t;
      }
      auto planar_seq = reference->Answer(kPlanarSourceId).value();
      auto planar_par = engine->Answer(kPlanarSourceId).value();
      ASSERT_EQ(planar_seq[0], planar_par[0]);
      ASSERT_EQ(planar_seq[1], planar_par[1]);
      // Aggregate answers sum in declared member order, so they are
      // bit-exact at any shard count.
      ASSERT_EQ(reference->AnswerAggregateWithStatus(7).value().value,
                engine->AnswerAggregateWithStatus(7).value().value);
      ASSERT_EQ(reference->AnswerAggregateCanonical(7).value(),
                engine->AnswerAggregateCanonical(7).value());
    }
  }

  // Update/traffic accounting matches exactly.
  for (const auto& engine : engines) {
    for (int id = 1; id <= kNumScalarSources; ++id) {
      EXPECT_EQ(reference->updates_sent(id).value(),
                engine->updates_sent(id).value());
      EXPECT_EQ(reference->source_delta(id).value(),
                engine->source_delta(id).value());
    }
    EXPECT_EQ(reference->uplink_traffic().messages,
              engine->uplink_traffic().messages);
    EXPECT_EQ(reference->uplink_traffic().bytes,
              engine->uplink_traffic().bytes);
    EXPECT_EQ(reference->control_messages(), engine->control_messages());
    EXPECT_EQ(reference->ticks(), engine->ticks());
    EXPECT_TRUE(engine->VerifyMirrorConsistency().ok());
  }
}

TEST(ShardedStreamEngineTest, ShardCountInvarianceUnderLossyChannel) {
  // Under loss the drop decisions come from per-source RNG streams, so
  // any shard count must produce identical per-source results.
  auto run = [](int shards) {
    ShardedStreamEngineOptions options;
    options.num_shards = shards;
    options.channel.drop_probability = 0.3;
    options.channel.seed = 77;
    auto engine = std::make_unique<ShardedStreamEngine>(options);
    InstallWorkload(*engine);
    DriveWorkload(*engine, 300, [](int) {});
    return engine;
  };
  auto reference = run(1);
  for (int shards : {2, 4, 8}) {
    auto engine = run(shards);
    for (int id = 1; id <= kNumScalarSources; ++id) {
      EXPECT_EQ(reference->Answer(id).value()[0],
                engine->Answer(id).value()[0])
          << "shards=" << shards << " source=" << id;
      EXPECT_EQ(reference->updates_sent(id).value(),
                engine->updates_sent(id).value())
          << "shards=" << shards << " source=" << id;
    }
    EXPECT_EQ(reference->uplink_traffic().messages,
              engine->uplink_traffic().messages);
    EXPECT_EQ(reference->uplink_traffic().dropped,
              engine->uplink_traffic().dropped);
  }
}

TEST(ShardedStreamEngineTest, MirrorConsistencyAcrossShardsUnderLoss) {
  ShardedStreamEngineOptions options;
  options.num_shards = 4;
  options.channel.drop_probability = 0.4;
  ShardedStreamEngine engine(options);
  InstallWorkload(engine);
  DriveWorkload(engine, 300, [&](int t) {
    ASSERT_TRUE(engine.VerifyMirrorConsistency().ok()) << "tick " << t;
  });
  // Loss must actually have occurred for this test to mean anything.
  EXPECT_GT(engine.uplink_traffic().dropped, 0);
}

TEST(ShardedStreamEngineTest, ErrorSurface) {
  ShardedStreamEngineOptions options;
  options.num_shards = 3;
  ShardedStreamEngine engine(options);
  ASSERT_TRUE(engine.RegisterSource(1, ScalarModel()).ok());
  EXPECT_EQ(engine.RegisterSource(1, ScalarModel()).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(engine.SubmitQuery(MakeQuery(1, 9, 2.0)).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(engine.SubmitQuery(MakeQuery(1 << 24, 1, 2.0)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.RemoveQuery(1 << 24).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.Answer(2).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.AnswerAggregateCanonical(9).status().code(),
            StatusCode::kNotFound);

  // Readings batch validation: exactly one reading per source.
  ASSERT_TRUE(engine.RegisterSource(2, ScalarModel()).ok());
  EXPECT_FALSE(engine.ProcessTick({{1, Vector{1.0}}}).ok());
  EXPECT_FALSE(
      engine.ProcessTick({{1, Vector{1.0}}, {3, Vector{1.0}}}).ok());
  EXPECT_TRUE(
      engine.ProcessTick({{1, Vector{1.0}}, {2, Vector{2.0}}}).ok());
  EXPECT_EQ(engine.ticks(), 1);

  // Aggregates reject non-scalar members.
  ASSERT_TRUE(engine.RegisterSource(5, PlanarModel()).ok());
  AggregateQuery bad;
  bad.id = 1;
  bad.source_ids = {1, 5};
  bad.precision = 2.0;
  EXPECT_EQ(engine.SubmitAggregateQuery(bad).code(),
            StatusCode::kInvalidArgument);
}

TEST(ShardedStreamEngineTest, RegisterSourceRefusesNonFiniteNoise) {
  // A NaN or infinite Q or R would diverge the source's filters on the
  // first tick and wedge every tick after it, healthy sources included.
  for (bool batched : {false, true}) {
    ShardedStreamEngineOptions options;
    options.batched_fleet = batched;
    ShardedStreamEngine engine(options);
    ASSERT_TRUE(engine.RegisterSource(1, ScalarModel()).ok());
    for (double bad : {std::nan(""), std::numeric_limits<double>::infinity()}) {
      StateModel model = ScalarModel();
      model.options.process_noise(0, 0) = bad;
      EXPECT_EQ(engine.RegisterSource(2, model).code(),
                StatusCode::kInvalidArgument)
          << "Q " << bad;
      model = ScalarModel();
      model.options.measurement_noise(0, 0) = bad;
      EXPECT_EQ(engine.RegisterSource(2, model).code(),
                StatusCode::kInvalidArgument)
          << "R " << bad;
    }
    EXPECT_EQ(engine.Answer(2).status().code(), StatusCode::kNotFound);
    for (int64_t t = 0; t < 5; ++t) {
      ASSERT_TRUE(
          engine.ProcessTick({{1, Vector{1.0 + static_cast<double>(t)}}}).ok())
          << "tick " << t;
    }
    EXPECT_EQ(engine.ticks(), 5);
    EXPECT_TRUE(std::isfinite(engine.Answer(1).value()[0]));
  }
}

/// A standalone shard caches the slice of its last accepted batch
/// layout. A refused layout must leave that cache whole: the next batch
/// is judged on its own, and the shard goes on exactly like a twin that
/// never saw the refused batches.
class StandaloneShardTest : public ::testing::TestWithParam<bool> {};

TEST_P(StandaloneShardTest, RefusedLayoutLeavesTheCachedSliceWhole) {
  ChannelOptions channel;
  StreamShard shard(channel, EnergyModelOptions(), /*default_delta=*/1.0);
  StreamShard twin(channel, EnergyModelOptions(), /*default_delta=*/1.0);
  for (StreamShard* s : {&shard, &twin}) {
    if (GetParam()) {
      ASSERT_TRUE(s->EnableFleet().ok());
    }
    for (int id = 1; id <= 3; ++id) {
      ASSERT_TRUE(s->AddSource(id, ScalarModel()).ok());
    }
  }
  auto batch = [](const std::vector<int>& ids, int64_t t) {
    ReadingBatch b;
    for (int id : ids) {
      b.ids.push_back(id);
      b.values.push_back(Vector{static_cast<double>(id) +
                                0.01 * static_cast<double>(t)});
    }
    return b;
  };
  for (int64_t t = 0; t < 30; ++t) {
    if (t % 10 == 1) {
      EXPECT_EQ(shard.ProcessTick(t, batch({1, 3}, t)).code(),
                StatusCode::kInvalidArgument)
          << "tick " << t;
      EXPECT_EQ(shard.ProcessTick(t, batch({}, t)).code(),
                StatusCode::kInvalidArgument)
          << "tick " << t;
    }
    const std::vector<int> ids =
        t % 2 == 0 ? std::vector<int>{1, 2, 3} : std::vector<int>{3, 1, 2};
    ASSERT_TRUE(shard.ProcessTick(t, batch(ids, t)).ok()) << "tick " << t;
    ASSERT_TRUE(twin.ProcessTick(t, batch(ids, t)).ok()) << "tick " << t;
    for (int id = 1; id <= 3; ++id) {
      ASSERT_EQ(shard.Answer(id).value()[0], twin.Answer(id).value()[0])
          << "tick " << t << " source " << id;
    }
  }
  if (GetParam()) {
    EXPECT_GT(shard.fleet_resident_count(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(ShardedStreamEngineTest, StandaloneShardTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return std::string(info.param ? "Fleet"
                                                          : "PerSource");
                         });

TEST(ShardedStreamEngineTest, AggregateLifecycleAndPartialSums) {
  ShardedStreamEngineOptions options;
  options.num_shards = 4;
  ShardedStreamEngine engine(options);
  for (int id = 1; id <= 8; ++id) {
    ASSERT_TRUE(engine.RegisterSource(id, ScalarModel()).ok());
  }
  AggregateQuery aggregate;
  aggregate.id = 3;
  aggregate.source_ids = {1, 2, 3, 4, 5, 6, 7, 8};
  aggregate.precision = 16.0;

  // Unknown members fail cleanly; a duplicate id is rejected.
  AggregateQuery bad = aggregate;
  bad.source_ids = {1, 9};
  EXPECT_EQ(engine.SubmitAggregateQuery(bad).code(), StatusCode::kNotFound);
  ASSERT_TRUE(engine.SubmitAggregateQuery(aggregate).ok());
  EXPECT_EQ(engine.SubmitAggregateQuery(aggregate).code(),
            StatusCode::kAlreadyExists);
  // Uniform split: every member runs at delta = 2, regardless of shard.
  for (int id = 1; id <= 8; ++id) {
    EXPECT_DOUBLE_EQ(engine.source_delta(id).value(), 2.0);
  }

  Rng rng(5);
  std::vector<double> values(9, 10.0);
  int violations = 0;
  for (int t = 0; t < 500; ++t) {
    std::map<int, Vector> readings;
    double truth = 0.0;
    for (int id = 1; id <= 8; ++id) {
      values[static_cast<size_t>(id)] += rng.Gaussian(0.1, 0.6);
      truth += values[static_cast<size_t>(id)];
      readings[id] = Vector{values[static_cast<size_t>(id)]};
    }
    ASSERT_TRUE(engine.ProcessTick(readings).ok());
    // Update ticks correct toward (not exactly onto) the reading, so a
    // small overshoot is possible there; count strict violations of the
    // suppressed-tick bound with a tolerance for that.
    const double answer = engine.AnswerAggregateCanonical(3).value();
    if (std::fabs(answer - truth) > 16.0 + 0.5) {
      ++violations;
    }
  }
  EXPECT_EQ(violations, 0);

  ASSERT_TRUE(engine.RemoveAggregateQuery(3).ok());
  EXPECT_EQ(engine.RemoveAggregateQuery(3).code(), StatusCode::kNotFound);
  EXPECT_GT(engine.source_delta(1).value(), 1e5);  // relaxed to default
}

TEST(ShardedStreamEngineTest, MergedStatsCoverAllShards) {
  ShardedStreamEngineOptions options;
  options.num_shards = 4;
  ShardedStreamEngine engine(options);
  for (int id = 0; id < 8; ++id) {
    ASSERT_TRUE(engine.RegisterSource(id, ScalarModel()).ok());
    ASSERT_TRUE(engine.SubmitQuery(MakeQuery(id + 1, id, 0.5)).ok());
  }
  Rng rng(11);
  for (int t = 0; t < 50; ++t) {
    std::map<int, Vector> readings;
    for (int id = 0; id < 8; ++id) {
      readings[id] = Vector{rng.Gaussian(0.0, 5.0)};
    }
    ASSERT_TRUE(engine.ProcessTick(readings).ok());
  }
  for (int id = 0; id < 8; ++id) {
    EXPECT_TRUE(engine.source_usage(id).ok()) << "source " << id;
  }
  EXPECT_EQ(engine.control_messages(), 8);
  // Every source deviates hard at delta 0.5: traffic from all shards.
  int64_t per_source_total = 0;
  for (int id = 0; id < 8; ++id) {
    EXPECT_GT(engine.updates_sent(id).value(), 0);
    per_source_total += engine.updates_sent(id).value();
  }
  const ChannelStats uplink = engine.uplink_traffic();
  EXPECT_EQ(uplink.messages, per_source_total);
  EXPECT_GT(uplink.bytes, 0);
}


/// A batch that passes the count check but is not one reading per
/// source must be refused before any shard ticks: no shard may advance
/// alone while the engine's tick count stays put.
struct RejectedTickCase {
  const char* name;
  bool batched_fleet;
  bool map_overload;
};

class RejectedTickTest : public ::testing::TestWithParam<RejectedTickCase> {};

TEST_P(RejectedTickTest, RejectsBeforeAnyShardTicks) {
  const RejectedTickCase& param = GetParam();
  ShardedStreamEngineOptions options;
  options.num_shards = 2;
  options.batched_fleet = param.batched_fleet;
  ShardedStreamEngine engine(options);
  // Source 0 lands on shard 0 and source 1 on shard 1.
  ASSERT_TRUE(engine.RegisterSource(0, ScalarModel()).ok());
  ASSERT_TRUE(engine.RegisterSource(1, ScalarModel()).ok());
  ASSERT_TRUE(engine.SubmitQuery(MakeQuery(1, 0, 1.0)).ok());
  ASSERT_TRUE(engine.SubmitQuery(MakeQuery(2, 1, 1.0)).ok());
  auto good = [](int64_t t) {
    ReadingBatch batch;
    batch.ids = {0, 1};
    batch.values = {Vector{10.0 + 0.01 * static_cast<double>(t)},
                    Vector{-5.0}};
    return batch;
  };
  for (int64_t t = 0; t < 3; ++t) ASSERT_TRUE(engine.ProcessTick(good(t)).ok());

  const int64_t ticks = engine.ticks();
  const double answer0 = engine.Answer(0).value()[0];
  const double answer1 = engine.Answer(1).value()[0];
  const int64_t sent0 = engine.updates_sent(0).value();
  const int64_t sent1 = engine.updates_sent(1).value();
  const ChannelStats uplink = engine.uplink_traffic();

  // A far-off reading for source 0: ticking shard 0 alone would send it.
  Status status;
  if (param.map_overload) {
    // Source 1 swapped for a foreign id.
    status = engine.ProcessTick({{0, Vector{96.0}}, {99, Vector{-5.0}}});
  } else {
    // Source 0 twice, source 1 missing.
    ReadingBatch bad;
    bad.ids = {0, 0};
    bad.values = {Vector{96.0}, Vector{96.0}};
    status = engine.ProcessTick(bad);
  }
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_EQ(engine.ticks(), ticks);
  EXPECT_EQ(engine.Answer(0).value()[0], answer0);
  EXPECT_EQ(engine.Answer(1).value()[0], answer1);
  EXPECT_EQ(engine.updates_sent(0).value(), sent0);
  EXPECT_EQ(engine.updates_sent(1).value(), sent1);
  EXPECT_EQ(engine.uplink_traffic().messages, uplink.messages);
  EXPECT_EQ(engine.uplink_traffic().bytes, uplink.bytes);

  ASSERT_TRUE(engine.ProcessTick(good(ticks)).ok());
  EXPECT_EQ(engine.ticks(), ticks + 1);
  EXPECT_TRUE(engine.VerifyLinkConsistency().ok());
}

INSTANTIATE_TEST_SUITE_P(
    ShardedStreamEngineTest, RejectedTickTest,
    ::testing::Values(RejectedTickCase{"PerSourceBatch", false, false},
                      RejectedTickCase{"PerSourceMap", false, true},
                      RejectedTickCase{"FleetBatch", true, false},
                      RejectedTickCase{"FleetMap", true, true}),
    [](const ::testing::TestParamInfo<RejectedTickCase>& info) {
      return std::string(info.param.name);
    });

struct NonFiniteCase {
  const char* name;
  int shards;
  bool batched_fleet;
};

class NonFiniteReadingTest : public ::testing::TestWithParam<NonFiniteCase> {
};

TEST_P(NonFiniteReadingTest, RejectedAndEngineKeepsTickingLikeItsTwin) {
  // A NaN or infinite reading is refused before any shard ticks; the
  // engine then goes on exactly like a twin that never saw it.
  const NonFiniteCase& param = GetParam();
  ShardedStreamEngineOptions options;
  options.num_shards = param.shards;
  options.batched_fleet = param.batched_fleet;
  ShardedStreamEngine engine(options);
  ShardedStreamEngine twin(options);
  for (ShardedStreamEngine* e : {&engine, &twin}) {
    ASSERT_TRUE(e->RegisterSource(1, ScalarModel()).ok());
    ASSERT_TRUE(e->RegisterSource(2, ScalarModel()).ok());
    ASSERT_TRUE(e->SubmitQuery(MakeQuery(1, 1, 1.0)).ok());
    ASSERT_TRUE(e->SubmitQuery(MakeQuery(2, 2, 1.0)).ok());
  }
  auto good = [](int64_t t) {
    ReadingBatch batch;
    batch.ids = {1, 2};
    batch.values = {Vector{1900.0 + 0.3 * static_cast<double>(t)},
                    Vector{std::sin(0.2 * static_cast<double>(t)) * 5.0}};
    return batch;
  };
  const double kBad[] = {std::nan(""), std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()};
  for (int64_t t = 0; t < 40; ++t) {
    if (t % 10 == 5) {
      for (double bad : kBad) {
        ReadingBatch batch = good(t);
        batch.values[t % 20 == 5 ? 0 : 1][0] = bad;
        const Status status = engine.ProcessTick(batch);
        EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
            << "tick " << t << ": " << status.ToString();
        EXPECT_EQ(engine.ticks(), t);
      }
    }
    ASSERT_TRUE(engine.ProcessTick(good(t)).ok()) << "tick " << t;
    ASSERT_TRUE(twin.ProcessTick(good(t)).ok()) << "tick " << t;
    for (int id : {1, 2}) {
      ASSERT_EQ(engine.Answer(id).value()[0], twin.Answer(id).value()[0])
          << "tick " << t << " source " << id;
      ASSERT_EQ(engine.updates_sent(id).value(), twin.updates_sent(id).value())
          << "tick " << t << " source " << id;
    }
  }
  EXPECT_EQ(engine.uplink_traffic().bytes, twin.uplink_traffic().bytes);
  EXPECT_TRUE(engine.VerifyLinkConsistency().ok());
}

INSTANTIATE_TEST_SUITE_P(
    ShardedStreamEngineTest, NonFiniteReadingTest,
    ::testing::Values(NonFiniteCase{"OneShard", 1, false},
                      NonFiniteCase{"TwoShards", 2, false},
                      NonFiniteCase{"OneShardFleet", 1, true},
                      NonFiniteCase{"TwoShardsFleet", 2, true}),
    [](const ::testing::TestParamInfo<NonFiniteCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace dkf
