// Deterministic chaos harness for the self-healing dual-link protocol
// (docs/protocol.md §6): seeded Gilbert–Elliott bursty loss, delivery
// delay with reordering, scheduled outages, ACK loss, and payload
// corruption, all active at once. The harness asserts the three
// robustness contracts:
//
//   1. Re-convergence: after every healed resync episode the mirror and
//      server filters are bit-identical (the link-consistency
//      invariant), and once the fault window closes every link heals
//      and stays bit-exact.
//   2. Graceful degradation: whenever an answer is NOT flagged
//      degraded, the delta-precision guarantee holds on suppressed
//      ticks exactly as on a fault-free link.
//   3. Shard invariance: the engine produces bit-identical answers and
//      fault counters at 1/2/4/8 shards.

#include <cmath>
#include <map>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "dsms/channel.h"
#include "dsms/server_node.h"
#include "dsms/source_node.h"
#include "metrics/fault_stats.h"
#include "models/model_factory.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "runtime/sharded_engine.h"

namespace dkf {
namespace {

StateModel ScalarModel(double process_variance = 0.05) {
  ModelNoise noise;
  noise.process_variance = process_variance;
  noise.measurement_variance = 0.05;
  return MakeLinearModel(1, 1.0, noise).value();
}

/// The full fault cocktail used by the direct-protocol test. Faults
/// stop at `active_until`, giving the clean tail the recovery
/// assertions need.
FaultModel ChaosCocktail(int64_t active_until) {
  FaultModel fault;
  fault.gilbert_elliott = GilbertElliottLoss{
      /*p_good_to_bad=*/0.08, /*p_bad_to_good=*/0.35,
      /*good_loss=*/0.0, /*bad_loss=*/1.0};
  fault.delay = DelayModel{/*min_ticks=*/0, /*max_ticks=*/2};
  fault.outages.push_back(OutageWindow{/*start=*/60, /*end=*/70});
  fault.outages.push_back(OutageWindow{/*start=*/150, /*end=*/160});
  fault.ack_loss_probability = 0.08;
  fault.corruption_probability = 0.04;
  fault.active_until = active_until;
  return fault;
}

// --- 1 + 2. Direct protocol drive: one dual link under the cocktail.

TEST(ChaosTest, LinkRelocksAndDeltaHoldsWheneverNotDegraded) {
  constexpr int64_t kFaultEnd = 240;
  constexpr int64_t kTicks = 300;
  constexpr double kDelta = 2.0;

  // heartbeat_interval = 1 and staleness_budget = 1 give the strict
  // contract: on every tick the server either heard something valid or
  // flags the answer degraded — so a non-degraded suppressed answer is
  // always backed by a same-tick delta test at the source.
  ProtocolOptions protocol;
  protocol.heartbeat_interval = 1;
  protocol.staleness_budget = 1;
  protocol.resync_burst_retries = 6;
  protocol.resync_retry_backoff = 4;

  ServerNode server(protocol);
  ASSERT_TRUE(server.RegisterSource(1, ScalarModel()).ok());

  ChannelOptions channel_options;
  channel_options.seed = 1234;
  channel_options.fault = ChaosCocktail(kFaultEnd);
  Channel channel(
      [&server](const Message& message) { return server.OnMessage(message); },
      channel_options);

  SourceNodeOptions node_options;
  node_options.source_id = 1;
  node_options.model = ScalarModel();
  node_options.delta = kDelta;
  node_options.protocol = protocol;
  auto node_or = SourceNode::Create(node_options);
  ASSERT_TRUE(node_or.ok());
  SourceNode source = std::move(node_or).value();

  Rng rng(7);
  double value = 0.0;
  int64_t resyncs_applied_before = 0;
  int relock_checks = 0;
  int precision_checks = 0;
  for (int64_t t = 0; t < kTicks; ++t) {
    ASSERT_TRUE(server.TickAll().ok());
    ASSERT_TRUE(channel.BeginTick(t).ok());
    value += rng.Gaussian(0.05, 0.5);
    auto step_or = source.ProcessReading(t, Vector{value}, &channel);
    ASSERT_TRUE(step_or.ok()) << "tick " << t;

    // Contract 1: whenever the source is not pending resync, the pair
    // is bit-identical — including the tick a resync episode heals.
    if (!source.resync_pending()) {
      ASSERT_TRUE(
          source.mirror().StateEquals(*server.predictor(1).value()))
          << "link-consistency violated at tick " << t;
      if (server.fault_stats().resyncs_applied > resyncs_applied_before) {
        ++relock_checks;  // a healed episode was verified bit-exact
      }
    }
    resyncs_applied_before = server.fault_stats().resyncs_applied;

    // Contract 2: a non-degraded answer on a suppressed tick obeys the
    // delta guarantee against the value that entered the protocol.
    auto confident_or = server.AnswerWithConfidence(1);
    ASSERT_TRUE(confident_or.ok());
    const bool update_tick = server.last_update_tick(1).value() == t;
    if (!confident_or.value().degraded && !update_tick) {
      EXPECT_LE(std::fabs(confident_or.value().value[0] - value), kDelta)
          << "delta violated on non-degraded tick " << t;
      ++precision_checks;
    }
    EXPECT_EQ(confident_or.value().degraded, server.degraded(1).value());

    // Past the fault window plus the retry budget, the link must have
    // healed for good.
    if (t >= kFaultEnd + 20) {
      EXPECT_FALSE(source.resync_pending()) << "still pending at tick " << t;
      EXPECT_FALSE(server.degraded(1).value()) << "still degraded at " << t;
    }
  }

  // The cocktail must actually have exercised every fault path, and the
  // bit-exact re-lock must have been observed on real healed episodes.
  const ProtocolFaultStats& source_faults = source.fault_stats();
  const ProtocolFaultStats& server_faults = server.fault_stats();
  EXPECT_GT(source_faults.divergence_events, 0);
  EXPECT_GT(source_faults.ambiguous_acks, 0);
  EXPECT_GT(source_faults.resyncs_sent, 0);
  EXPECT_GT(source_faults.ticks_diverged, 0);
  EXPECT_GE(source_faults.max_recovery_ticks, 1);
  EXPECT_GT(source_faults.heartbeats_sent, 0);
  EXPECT_GT(server_faults.resyncs_applied, 0);
  EXPECT_GT(server_faults.heartbeats_received, 0);
  EXPECT_GT(server_faults.rejected_corrupt, 0);
  EXPECT_GT(server_faults.rejected_stale, 0);
  EXPECT_GT(server_faults.sequence_gaps, 0);
  EXPECT_GT(server_faults.degraded_ticks, 0);
  EXPECT_GT(relock_checks, 0);
  EXPECT_GT(precision_checks, 0);
  EXPECT_GT(channel.total().outage_dropped, 0);
  EXPECT_GT(channel.total().corrupted, 0);
  EXPECT_GT(channel.total().ack_lost, 0);
  EXPECT_GT(channel.total().delayed, 0);
  EXPECT_GT(source_faults.MeanRecoveryTicks(), 0.0);
}

// --- 3. Shard invariance: the engine at 1/2/4/8 shards.

constexpr int kNumSources = 10;
constexpr int kAggregateId = 7;
constexpr int64_t kFleetFaultEnd = 280;
constexpr int64_t kFleetTicks = 420;

ChannelOptions FleetChannel() {
  ChannelOptions options;
  options.seed = 77;
  options.drop_probability = 0.1;  // legacy Bernoulli loss in the mix
  FaultModel fault;
  fault.gilbert_elliott = GilbertElliottLoss{
      /*p_good_to_bad=*/0.05, /*p_bad_to_good=*/0.3,
      /*good_loss=*/0.0, /*bad_loss=*/1.0};
  fault.delay = DelayModel{/*min_ticks=*/0, /*max_ticks=*/1};
  fault.outages.push_back(OutageWindow{/*start=*/100, /*end=*/115});
  fault.ack_loss_probability = 0.05;
  fault.corruption_probability = 0.03;
  fault.active_until = kFleetFaultEnd;
  options.fault = fault;
  return options;
}

ProtocolOptions FleetProtocol() {
  ProtocolOptions protocol;
  protocol.heartbeat_interval = 3;
  protocol.staleness_budget = 5;
  protocol.resync_burst_retries = 4;
  protocol.resync_retry_backoff = 6;
  return protocol;
}

void InstallChaosWorkload(ShardedStreamEngine& system) {
  // Tracing on from the start: the shard-invariance contract must cover
  // the observability stream too.
  ASSERT_TRUE(system.EnableTracing().ok());
  for (int id = 1; id <= kNumSources; ++id) {
    ASSERT_TRUE(
        system.RegisterSource(id, ScalarModel(0.02 + 0.01 * (id % 4))).ok());
    ContinuousQuery query;
    query.id = id;
    query.source_id = id;
    query.precision = 1.0 + 0.5 * (id % 3);
    ASSERT_TRUE(system.SubmitQuery(query).ok());
  }
  AggregateQuery aggregate;
  aggregate.id = kAggregateId;
  aggregate.source_ids = {2, 5, 8, 9};  // spans shards for any count > 1
  aggregate.precision = 8.0;
  ASSERT_TRUE(system.SubmitAggregateQuery(aggregate).ok());
}

std::map<int, Vector> FleetReadings(Rng& rng, std::vector<double>& values) {
  std::map<int, Vector> readings;
  for (int id = 1; id <= kNumSources; ++id) {
    values[static_cast<size_t>(id)] += rng.Gaussian(0.05 * (id % 3), 0.7);
    readings[id] = Vector{values[static_cast<size_t>(id)]};
  }
  return readings;
}

void ExpectFaultStatsEqual(const ProtocolFaultStats& a,
                           const ProtocolFaultStats& b, int shards) {
  EXPECT_EQ(a.divergence_events, b.divergence_events) << "shards=" << shards;
  EXPECT_EQ(a.resyncs_sent, b.resyncs_sent) << "shards=" << shards;
  EXPECT_EQ(a.heartbeats_sent, b.heartbeats_sent) << "shards=" << shards;
  EXPECT_EQ(a.ambiguous_acks, b.ambiguous_acks) << "shards=" << shards;
  EXPECT_EQ(a.ticks_diverged, b.ticks_diverged) << "shards=" << shards;
  EXPECT_EQ(a.max_recovery_ticks, b.max_recovery_ticks)
      << "shards=" << shards;
  EXPECT_EQ(a.resyncs_applied, b.resyncs_applied) << "shards=" << shards;
  EXPECT_EQ(a.heartbeats_received, b.heartbeats_received)
      << "shards=" << shards;
  EXPECT_EQ(a.rejected_stale, b.rejected_stale) << "shards=" << shards;
  EXPECT_EQ(a.rejected_corrupt, b.rejected_corrupt) << "shards=" << shards;
  EXPECT_EQ(a.sequence_gaps, b.sequence_gaps) << "shards=" << shards;
  EXPECT_EQ(a.degraded_ticks, b.degraded_ticks) << "shards=" << shards;
}

TEST(ChaosTest, ShardCountInvarianceUnderFullFaultCocktail) {
  ShardedStreamEngineOptions single_options;
  single_options.channel = FleetChannel();
  single_options.protocol = FleetProtocol();
  ShardedStreamEngine single(single_options);
  InstallChaosWorkload(single);

  std::vector<std::unique_ptr<ShardedStreamEngine>> engines;
  for (int shards : {2, 4, 8}) {
    ShardedStreamEngineOptions options;
    options.num_shards = shards;
    options.channel = FleetChannel();
    options.protocol = FleetProtocol();
    engines.push_back(std::make_unique<ShardedStreamEngine>(options));
    InstallChaosWorkload(*engines.back());
  }

  Rng rng(91);
  std::vector<double> values(kNumSources + 1, 0.0);
  for (int64_t t = 0; t < kFleetTicks; ++t) {
    const std::map<int, Vector> readings = FleetReadings(rng, values);
    ASSERT_TRUE(single.ProcessTick(readings).ok()) << "tick " << t;
    for (auto& engine : engines) {
      ASSERT_TRUE(engine->ProcessTick(readings).ok())
          << "tick " << t << " shards=" << engine->num_shards();
    }

    // The relaxed invariant holds on every system at every tick.
    if (t % 25 == 0 || t == kFleetTicks - 1) {
      ASSERT_TRUE(single.VerifyLinkConsistency().ok()) << "tick " << t;
      for (auto& engine : engines) {
        ASSERT_TRUE(engine->VerifyLinkConsistency().ok())
            << "tick " << t << " shards=" << engine->num_shards();
      }
    }

    // Every engine answers bit-identically to the single shard —
    // fault schedules included.
    if (t % 40 == 0 || t == kFleetTicks - 1) {
      for (auto& engine : engines) {
        for (int id = 1; id <= kNumSources; ++id) {
          ASSERT_EQ(single.Answer(id).value()[0],
                    engine->Answer(id).value()[0])
              << "tick " << t << " shards=" << engine->num_shards()
              << " source=" << id;
          ASSERT_EQ(single.answer_degraded(id).value(),
                    engine->answer_degraded(id).value())
              << "tick " << t << " shards=" << engine->num_shards()
              << " source=" << id;
          ASSERT_EQ(single.resync_pending(id).value(),
                    engine->resync_pending(id).value())
              << "tick " << t << " shards=" << engine->num_shards()
              << " source=" << id;
        }
        auto seq_agg = single.AnswerAggregateWithStatus(kAggregateId);
        auto par_agg = engine->AnswerAggregateWithStatus(kAggregateId);
        ASSERT_TRUE(seq_agg.ok() && par_agg.ok());
        ASSERT_EQ(seq_agg.value().value, par_agg.value().value);
        ASSERT_EQ(seq_agg.value().degraded_members,
                  par_agg.value().degraded_members);
      }
    }

    // Deep inside the outage window, every member link is overdue: the
    // aggregate must advertise that its guarantee is void.
    if (t == 110) {
      auto aggregate_or = single.AnswerAggregateWithStatus(kAggregateId);
      ASSERT_TRUE(aggregate_or.ok());
      EXPECT_TRUE(aggregate_or.value().degraded());
      EXPECT_EQ(aggregate_or.value().degraded_members, 4);
      for (int id = 1; id <= kNumSources; ++id) {
        EXPECT_TRUE(single.answer_degraded(id).value()) << "source " << id;
      }
    }
  }

  // Chaos actually happened...
  const ProtocolFaultStats single_faults = single.fault_stats();
  EXPECT_GT(single_faults.divergence_events, 0);
  EXPECT_GT(single_faults.resyncs_applied, 0);
  EXPECT_GT(single_faults.rejected_corrupt, 0);
  EXPECT_GT(single_faults.rejected_stale, 0);
  EXPECT_GT(single_faults.degraded_ticks, 0);
  EXPECT_GT(single.uplink_traffic().outage_dropped, 0);

  // ...and after the clean tail every system healed completely: no
  // pending episodes, full (strict) mirror consistency everywhere.
  for (int id = 1; id <= kNumSources; ++id) {
    EXPECT_FALSE(single.resync_pending(id).value()) << "source " << id;
  }
  EXPECT_TRUE(single.VerifyMirrorConsistency().ok());
  for (auto& engine : engines) {
    for (int id = 1; id <= kNumSources; ++id) {
      EXPECT_FALSE(engine->resync_pending(id).value())
          << "shards=" << engine->num_shards() << " source=" << id;
    }
    EXPECT_TRUE(engine->VerifyMirrorConsistency().ok())
        << "shards=" << engine->num_shards();

    // Identical per-source trajectories imply identical accounting.
    ExpectFaultStatsEqual(single_faults, engine->fault_stats(),
                          engine->num_shards());
    const ChannelStats merged = engine->uplink_traffic();
    EXPECT_EQ(single.uplink_traffic().messages, merged.messages);
    EXPECT_EQ(single.uplink_traffic().bytes, merged.bytes);
    EXPECT_EQ(single.uplink_traffic().dropped, merged.dropped);
    EXPECT_EQ(single.uplink_traffic().corrupted, merged.corrupted);
    EXPECT_EQ(single.uplink_traffic().delayed, merged.delayed);
    EXPECT_EQ(single.uplink_traffic().ack_lost, merged.ack_lost);
    EXPECT_EQ(single.uplink_traffic().outage_dropped,
              merged.outage_dropped);
    for (int id = 1; id <= kNumSources; ++id) {
      EXPECT_EQ(single.updates_sent(id).value(),
                engine->updates_sent(id).value())
          << "shards=" << engine->num_shards() << " source=" << id;
    }
    // The merged fault counters agree too.
    EXPECT_EQ(engine->fault_stats().resyncs_applied,
              single_faults.resyncs_applied);
  }

  // The observability stream obeys the same invariance: the merged
  // trace and the metrics snapshot are bit-identical across the
  // single shard and every other shard count, under the full cocktail.
  const std::vector<TraceEvent> reference_trace = single.MergedTrace();
  const MetricsRegistry reference_metrics = single.MetricsSnapshot();
  ASSERT_EQ(single.shard_sink(0)->dropped_events(), 0)
      << "ring too small for an exact trace comparison";
#if DKF_OBS_ENABLED
  // Every protocol path left its mark in the trace.
  ASSERT_FALSE(reference_trace.empty());
  EXPECT_GT(reference_metrics.counter("trace.divergence"), 0);
  EXPECT_GT(reference_metrics.counter("trace.resync_sent"), 0);
  EXPECT_GT(reference_metrics.counter("trace.resync_applied"), 0);
  EXPECT_GT(reference_metrics.counter("trace.heal"), 0);
  EXPECT_GT(reference_metrics.counter("trace.corrupt_reject"), 0);
  EXPECT_GT(reference_metrics.counter("trace.stale_reject"), 0);
  EXPECT_GT(reference_metrics.counter("trace.degraded_tick"), 0);
  EXPECT_GT(reference_metrics.counter("trace.channel_outage"), 0);
  EXPECT_GT(reference_metrics.counter("trace.channel_corrupt"), 0);
  EXPECT_GT(reference_metrics.counter("trace.channel_delay"), 0);
  EXPECT_GT(reference_metrics.counter("trace.channel_ack_loss"), 0);
#endif
  for (auto& engine : engines) {
    EXPECT_TRUE(engine->MergedTrace() == reference_trace)
        << "merged trace differs, shards=" << engine->num_shards();
    EXPECT_TRUE(engine->MetricsSnapshot() == reference_metrics)
        << "metrics snapshot differs, shards=" << engine->num_shards();
  }
}

// --- Degraded answers inflate confidence monotonically with overdue
// --- time.

TEST(ChaosTest, DegradedAnswersInflateCovariance) {
  ProtocolOptions protocol;
  protocol.staleness_budget = 3;
  protocol.degraded_inflation = 0.25;
  ServerNode server(protocol);
  ASSERT_TRUE(server.RegisterSource(1, ScalarModel()).ok());

  uint32_t sequence = 1;
  auto heartbeat_at = [&](int64_t tick) {
    Message beacon;
    beacon.type = MessageType::kHeartbeat;
    beacon.source_id = 1;
    beacon.tick = tick;
    beacon.sequence = sequence++;
    return server.OnMessage(beacon);
  };

  // Ticks 0..4: fresh heartbeats keep the link live and non-degraded.
  for (int64_t t = 0; t < 5; ++t) {
    ASSERT_TRUE(server.TickAll().ok());
    ASSERT_TRUE(heartbeat_at(t).ok());
    EXPECT_FALSE(server.degraded(1).value()) << "tick " << t;
  }

  // Then the link goes silent. Degradation starts once the staleness
  // budget is exhausted, and the covariance inflation grows with every
  // further overdue tick.
  double previous_inflated = 0.0;
  for (int64_t t = 5; t < 12; ++t) {
    ASSERT_TRUE(server.TickAll().ok());
    auto confident_or = server.AnswerWithConfidence(1);
    ASSERT_TRUE(confident_or.ok());
    const auto& answer = confident_or.value();
    const Matrix raw =
        server.predictor(1).value()->PredictedCovariance().value();
    if (t - 4 < protocol.staleness_budget) {
      EXPECT_FALSE(answer.degraded) << "tick " << t;
      EXPECT_DOUBLE_EQ((*answer.covariance)(0, 0), raw(0, 0));
    } else {
      EXPECT_TRUE(answer.degraded) << "tick " << t;
      const int64_t overdue = (t - 4) - protocol.staleness_budget + 1;
      const double expected_scale = 1.0 + 0.25 * static_cast<double>(overdue);
      EXPECT_DOUBLE_EQ((*answer.covariance)(0, 0),
                       raw(0, 0) * expected_scale);
      EXPECT_GT((*answer.covariance)(0, 0), previous_inflated);
      previous_inflated = (*answer.covariance)(0, 0);
    }
  }

  // A fresh heartbeat clears the flag on the next tick.
  ASSERT_TRUE(server.TickAll().ok());
  ASSERT_TRUE(heartbeat_at(12).ok());
  EXPECT_FALSE(server.degraded(1).value());
  // Silent degradation counts source-ticks.
  EXPECT_GT(server.fault_stats().degraded_ticks, 0);
}

// --- Fault-counter merge arithmetic (metrics/fault_stats).

TEST(ChaosTest, FaultStatsMergeSumsAndMaxes) {
  ProtocolFaultStats a;
  a.divergence_events = 2;
  a.resyncs_sent = 5;
  a.ticks_diverged = 9;
  a.max_recovery_ticks = 4;
  a.rejected_corrupt = 1;
  ProtocolFaultStats b;
  b.divergence_events = 1;
  b.resyncs_sent = 2;
  b.ticks_diverged = 3;
  b.max_recovery_ticks = 7;
  b.sequence_gaps = 5;
  a.MergeFrom(b);
  EXPECT_EQ(a.divergence_events, 3);
  EXPECT_EQ(a.resyncs_sent, 7);
  EXPECT_EQ(a.ticks_diverged, 12);
  EXPECT_EQ(a.max_recovery_ticks, 7);  // max, not sum
  EXPECT_EQ(a.rejected_corrupt, 1);
  EXPECT_EQ(a.sequence_gaps, 5);
  EXPECT_DOUBLE_EQ(a.MeanRecoveryTicks(), 4.0);
  EXPECT_DOUBLE_EQ(ProtocolFaultStats().MeanRecoveryTicks(), 0.0);
}

}  // namespace
}  // namespace dkf
