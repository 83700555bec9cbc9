// Stream management on the default single-shard ShardedStreamEngine:
// source registration, query-driven delta installation, precision on
// suppressed ticks, smoothing, aggregates, and reconfiguration over
// lossy or diverged links. Multi-shard layouts are held bit-exact to
// this reference in tests/runtime/sharded_engine_test.cc.
#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "models/model_factory.h"
#include "runtime/sharded_engine.h"

namespace dkf {
namespace {

StateModel LinearModel() {
  ModelNoise noise;
  noise.process_variance = 0.05;
  noise.measurement_variance = 0.05;
  return MakeLinearModel(1, 1.0, noise).value();
}

ContinuousQuery MakeQuery(int id, int source, double precision) {
  ContinuousQuery query;
  query.id = id;
  query.source_id = source;
  query.precision = precision;
  return query;
}

TEST(StreamManagerTest, SourceRegistrationLifecycle) {
  ShardedStreamEngine engine{ShardedStreamEngineOptions{}};
  EXPECT_TRUE(engine.RegisterSource(1, LinearModel()).ok());
  EXPECT_EQ(engine.RegisterSource(1, LinearModel()).code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(engine.Answer(1).ok());
  EXPECT_EQ(engine.Answer(2).status().code(), StatusCode::kNotFound);
}

TEST(StreamManagerTest, QueryRequiresRegisteredSource) {
  ShardedStreamEngine engine{ShardedStreamEngineOptions{}};
  EXPECT_EQ(engine.SubmitQuery(MakeQuery(1, 9, 2.0)).code(),
            StatusCode::kNotFound);
}

TEST(StreamManagerTest, ReservedQueryIdsRejected) {
  ShardedStreamEngine engine{ShardedStreamEngineOptions{}};
  ASSERT_TRUE(engine.RegisterSource(1, LinearModel()).ok());
  EXPECT_EQ(engine.SubmitQuery(MakeQuery(1 << 24, 1, 2.0)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.RemoveQuery(1 << 24).code(), StatusCode::kInvalidArgument);
}

TEST(StreamManagerTest, QueryInstallsEffectiveDelta) {
  ShardedStreamEngine engine{ShardedStreamEngineOptions{}};
  ASSERT_TRUE(engine.RegisterSource(1, LinearModel()).ok());
  EXPECT_GT(engine.source_delta(1).value(), 1e5);  // default, loose
  ASSERT_TRUE(engine.SubmitQuery(MakeQuery(1, 1, 4.0)).ok());
  EXPECT_DOUBLE_EQ(engine.source_delta(1).value(), 4.0);
  // Tighter query wins.
  ASSERT_TRUE(engine.SubmitQuery(MakeQuery(2, 1, 1.5)).ok());
  EXPECT_DOUBLE_EQ(engine.source_delta(1).value(), 1.5);
  // Removing it relaxes back.
  ASSERT_TRUE(engine.RemoveQuery(2).ok());
  EXPECT_DOUBLE_EQ(engine.source_delta(1).value(), 4.0);
  EXPECT_EQ(engine.control_messages(), 3);
}

TEST(StreamManagerTest, ProcessTickValidatesReadings) {
  ShardedStreamEngine engine{ShardedStreamEngineOptions{}};
  ASSERT_TRUE(engine.RegisterSource(1, LinearModel()).ok());
  ASSERT_TRUE(engine.RegisterSource(2, LinearModel()).ok());
  EXPECT_FALSE(engine.ProcessTick({{1, Vector{1.0}}}).ok());
  EXPECT_FALSE(
      engine.ProcessTick({{1, Vector{1.0}}, {3, Vector{1.0}}}).ok());
  EXPECT_TRUE(
      engine.ProcessTick({{1, Vector{1.0}}, {2, Vector{2.0}}}).ok());
  EXPECT_EQ(engine.ticks(), 1);
}

TEST(StreamManagerTest, AnswersRespectPrecisionOnSuppressedTicks) {
  ShardedStreamEngine engine{ShardedStreamEngineOptions{}};
  ASSERT_TRUE(engine.RegisterSource(1, LinearModel()).ok());
  ASSERT_TRUE(engine.SubmitQuery(MakeQuery(1, 1, 3.0)).ok());
  Rng rng(1);
  double value = 0.0;
  double slope = 1.0;
  for (int i = 0; i < 1500; ++i) {
    if (i % 300 == 0) slope = rng.Uniform(-2.0, 2.0);
    value += slope;
    const int64_t before = engine.updates_sent(1).value();
    ASSERT_TRUE(engine.ProcessTick({{1, Vector{value}}}).ok());
    const bool sent = engine.updates_sent(1).value() > before;
    if (!sent) {
      EXPECT_LE(std::fabs(engine.Answer(1).value()[0] - value), 3.0 + 1e-9)
          << "tick " << i;
    }
  }
}

TEST(StreamManagerTest, MirrorConsistencyAcrossReconfiguration) {
  ShardedStreamEngine engine{ShardedStreamEngineOptions{}};
  ASSERT_TRUE(engine.RegisterSource(1, LinearModel()).ok());
  ASSERT_TRUE(engine.SubmitQuery(MakeQuery(1, 1, 5.0)).ok());
  Rng rng(2);
  double value = 0.0;
  for (int i = 0; i < 1200; ++i) {
    value += rng.Gaussian(0.4, 1.0);
    ASSERT_TRUE(engine.ProcessTick({{1, Vector{value}}}).ok());
    ASSERT_TRUE(engine.VerifyMirrorConsistency().ok()) << "tick " << i;
    // Query churn mid-stream: tighten, loosen, tighten again.
    if (i == 300) {
      ASSERT_TRUE(engine.SubmitQuery(MakeQuery(2, 1, 1.0)).ok());
    }
    if (i == 600) {
      ASSERT_TRUE(engine.RemoveQuery(2).ok());
    }
    if (i == 900) {
      ASSERT_TRUE(engine.SubmitQuery(MakeQuery(3, 1, 0.5)).ok());
    }
  }
}

TEST(StreamManagerTest, TighterQueryIncreasesUpdateRate) {
  ShardedStreamEngine engine{ShardedStreamEngineOptions{}};
  ASSERT_TRUE(engine.RegisterSource(1, LinearModel()).ok());
  ASSERT_TRUE(engine.SubmitQuery(MakeQuery(1, 1, 8.0)).ok());
  Rng rng(3);
  double value = 0.0;
  auto run_phase = [&](int ticks) {
    const int64_t before = engine.updates_sent(1).value();
    for (int i = 0; i < ticks; ++i) {
      value += rng.Gaussian(0.0, 1.5);  // drifting random walk
      EXPECT_TRUE(engine.ProcessTick({{1, Vector{value}}}).ok());
    }
    return engine.updates_sent(1).value() - before;
  };
  const int64_t loose_updates = run_phase(1500);
  ASSERT_TRUE(engine.SubmitQuery(MakeQuery(2, 1, 1.0)).ok());
  const int64_t tight_updates = run_phase(1500);
  EXPECT_GT(tight_updates, 2 * loose_updates);
}

TEST(StreamManagerTest, SmoothingQueryInstallsKfc) {
  ShardedStreamEngine engine{ShardedStreamEngineOptions{}};
  ASSERT_TRUE(engine.RegisterSource(1, LinearModel()).ok());
  ContinuousQuery query = MakeQuery(1, 1, 5.0);
  query.smoothing_factor = 1e-7;
  ASSERT_TRUE(engine.SubmitQuery(query).ok());

  // Extremely noisy but stationary stream: with KF_c installed the
  // protocol stream is nearly constant -> almost no updates.
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(
        engine.ProcessTick({{1, Vector{50.0 + rng.Gaussian(0.0, 10.0)}}})
            .ok());
  }
  EXPECT_LT(engine.updates_sent(1).value(), 50);
}

TEST(StreamManagerTest, ConfidenceAnswerAvailable) {
  ShardedStreamEngine engine{ShardedStreamEngineOptions{}};
  ASSERT_TRUE(engine.RegisterSource(1, LinearModel()).ok());
  ASSERT_TRUE(engine.ProcessTick({{1, Vector{10.0}}}).ok());
  auto answer_or = engine.AnswerWithConfidence(1);
  ASSERT_TRUE(answer_or.ok());
  EXPECT_TRUE(answer_or.value().covariance.has_value());
}

TEST(StreamManagerTest, AggregateQueryLifecycle) {
  ShardedStreamEngine engine{ShardedStreamEngineOptions{}};
  ASSERT_TRUE(engine.RegisterSource(1, LinearModel()).ok());
  ASSERT_TRUE(engine.RegisterSource(2, LinearModel()).ok());

  AggregateQuery aggregate;
  aggregate.id = 10;
  aggregate.source_ids = {1, 2};
  aggregate.precision = 6.0;

  // Unknown source fails cleanly.
  AggregateQuery bad = aggregate;
  bad.source_ids = {1, 9};
  EXPECT_EQ(engine.SubmitAggregateQuery(bad).code(), StatusCode::kNotFound);

  ASSERT_TRUE(engine.SubmitAggregateQuery(aggregate).ok());
  EXPECT_EQ(engine.SubmitAggregateQuery(aggregate).code(),
            StatusCode::kAlreadyExists);
  // Uniform split: each source runs at delta = 3.
  EXPECT_DOUBLE_EQ(engine.source_delta(1).value(), 3.0);
  EXPECT_DOUBLE_EQ(engine.source_delta(2).value(), 3.0);
  EXPECT_TRUE(engine.AnswerAggregateCanonical(10).ok());
  EXPECT_EQ(engine.AnswerAggregateCanonical(11).status().code(),
            StatusCode::kNotFound);

  ASSERT_TRUE(engine.RemoveAggregateQuery(10).ok());
  EXPECT_EQ(engine.RemoveAggregateQuery(10).code(), StatusCode::kNotFound);
  // Sources relaxed back to the default.
  EXPECT_GT(engine.source_delta(1).value(), 1e5);
}

TEST(StreamManagerTest, AggregateAnswerWithinPrecision) {
  ShardedStreamEngine engine{ShardedStreamEngineOptions{}};
  ASSERT_TRUE(engine.RegisterSource(1, LinearModel()).ok());
  ASSERT_TRUE(engine.RegisterSource(2, LinearModel()).ok());
  ASSERT_TRUE(engine.RegisterSource(3, LinearModel()).ok());

  AggregateQuery aggregate;
  aggregate.id = 1;
  aggregate.source_ids = {1, 2, 3};
  aggregate.precision = 9.0;
  ASSERT_TRUE(engine.SubmitAggregateQuery(aggregate).ok());

  Rng rng(9);
  double a = 0.0;
  double b = 100.0;
  double c = -50.0;
  int violations = 0;
  for (int i = 0; i < 2000; ++i) {
    a += rng.Gaussian(0.3, 0.8);
    b += rng.Gaussian(-0.2, 0.8);
    c += rng.Gaussian(0.1, 0.8);
    ASSERT_TRUE(engine
                    .ProcessTick({{1, Vector{a}}, {2, Vector{b}},
                                  {3, Vector{c}}})
                    .ok());
    const double answered = engine.AnswerAggregateCanonical(1).value();
    // Update ticks correct toward (not exactly onto) the reading, so a
    // small overshoot is possible there; count strict violations of the
    // suppressed-tick bound with a tolerance for that.
    if (std::fabs(answered - (a + b + c)) > 9.0 + 0.5) ++violations;
  }
  EXPECT_EQ(violations, 0);
}

TEST(StreamManagerTest, WeightedAggregateSplit) {
  ShardedStreamEngine engine{ShardedStreamEngineOptions{}};
  ASSERT_TRUE(engine.RegisterSource(1, LinearModel()).ok());
  ASSERT_TRUE(engine.RegisterSource(2, LinearModel()).ok());
  AggregateQuery aggregate;
  aggregate.id = 2;
  aggregate.source_ids = {1, 2};
  aggregate.precision = 9.0;
  ASSERT_TRUE(engine.SubmitAggregateQuery(aggregate, {2.0, 1.0}).ok());
  EXPECT_DOUBLE_EQ(engine.source_delta(1).value(), 6.0);
  EXPECT_DOUBLE_EQ(engine.source_delta(2).value(), 3.0);
}

TEST(StreamManagerTest, ReconfigurationUnderLossyChannel) {
  // Mid-stream set_delta / set_smoothing with a lossy (but reliable-ACK)
  // uplink: reconfiguration rides the out-of-band downlink, so strict
  // mirror consistency must survive every change.
  ShardedStreamEngineOptions options;
  options.channel.drop_probability = 0.35;
  options.channel.seed = 21;
  ShardedStreamEngine engine(options);
  ASSERT_TRUE(engine.RegisterSource(1, LinearModel()).ok());
  ASSERT_TRUE(engine.SubmitQuery(MakeQuery(1, 1, 6.0)).ok());

  Rng rng(17);
  double value = 0.0;
  for (int i = 0; i < 900; ++i) {
    // A calm phase makes tick 300's tightening land inside a
    // suppression run (no update in flight for many ticks).
    value += (i < 300) ? 0.001 : rng.Gaussian(0.3, 1.0);
    ASSERT_TRUE(engine.ProcessTick({{1, Vector{value}}}).ok());
    ASSERT_TRUE(engine.VerifyMirrorConsistency().ok()) << "tick " << i;
    if (i == 300) {
      ASSERT_TRUE(engine.SubmitQuery(MakeQuery(2, 1, 0.8)).ok());
      EXPECT_DOUBLE_EQ(engine.source_delta(1).value(), 0.8);
    }
    if (i == 500) {
      ContinuousQuery smoothing = MakeQuery(3, 1, 0.8);
      smoothing.smoothing_factor = 1e-3;
      ASSERT_TRUE(engine.SubmitQuery(smoothing).ok());
    }
    if (i == 700) {
      ASSERT_TRUE(engine.RemoveQuery(3).ok());
    }
  }
  // Loss must actually have occurred, and updates kept flowing after
  // every reconfiguration.
  EXPECT_GT(engine.uplink_traffic().dropped, 0);
  EXPECT_GT(engine.updates_sent(1).value(), 0);
}

TEST(StreamManagerTest, ReconfigurationDuringPendingResyncEpisode) {
  // ACK loss on every delivery until tick 60: the first transmission
  // starts a divergence episode that cannot heal while the fault is
  // active. Reconfiguring in the middle of that episode must neither
  // crash nor corrupt the link once it heals.
  ShardedStreamEngineOptions options;
  options.channel.seed = 5;
  options.channel.fault.ack_loss_probability = 1.0;
  options.channel.fault.active_until = 60;
  options.protocol.resync_burst_retries = 4;
  options.protocol.resync_retry_backoff = 6;
  ShardedStreamEngine engine(options);
  ASSERT_TRUE(engine.RegisterSource(1, LinearModel()).ok());
  ASSERT_TRUE(engine.SubmitQuery(MakeQuery(1, 1, 3.0)).ok());

  Rng rng(23);
  double value = 0.0;
  bool reconfigured_while_pending = false;
  for (int i = 0; i < 200; ++i) {
    value += rng.Gaussian(0.5, 1.0);
    ASSERT_TRUE(engine.ProcessTick({{1, Vector{value}}}).ok());
    ASSERT_TRUE(engine.VerifyLinkConsistency().ok()) << "tick " << i;
    if (!reconfigured_while_pending && engine.resync_pending(1).value()) {
      // Mid-episode: tighten the delta AND install smoothing. Both only
      // touch pre-protocol state, so the frozen episode is unaffected.
      ASSERT_TRUE(engine.SubmitQuery(MakeQuery(2, 1, 0.5)).ok());
      ContinuousQuery smoothing = MakeQuery(3, 1, 0.5);
      smoothing.smoothing_factor = 1e-4;
      ASSERT_TRUE(engine.SubmitQuery(smoothing).ok());
      EXPECT_DOUBLE_EQ(engine.source_delta(1).value(), 0.5);
      reconfigured_while_pending = true;
    }
    if (i >= 80) {
      // Fault window + retry backoff long past: healed for good.
      ASSERT_FALSE(engine.resync_pending(1).value()) << "tick " << i;
      ASSERT_TRUE(engine.VerifyMirrorConsistency().ok()) << "tick " << i;
    }
  }
  ASSERT_TRUE(reconfigured_while_pending);
  EXPECT_GT(engine.fault_stats().divergence_events, 0);
  EXPECT_GT(engine.fault_stats().resyncs_applied, 0);
  // The tightened delta drives updates after the link heals.
  EXPECT_DOUBLE_EQ(engine.source_delta(1).value(), 0.5);
  EXPECT_GT(engine.updates_sent(1).value(), 0);
}

TEST(StreamManagerTest, RedundantQueryCausesNoControlMessage) {
  ShardedStreamEngine engine{ShardedStreamEngineOptions{}};
  ASSERT_TRUE(engine.RegisterSource(1, LinearModel()).ok());
  ASSERT_TRUE(engine.SubmitQuery(MakeQuery(1, 1, 2.0)).ok());
  const int64_t after_first = engine.control_messages();
  // A looser query on the same source changes nothing at the source.
  ASSERT_TRUE(engine.SubmitQuery(MakeQuery(2, 1, 9.0)).ok());
  EXPECT_EQ(engine.control_messages(), after_first);
}

}  // namespace
}  // namespace dkf
