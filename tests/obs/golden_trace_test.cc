// Golden-trace tests for the observability layer: a canonical small run
// pins the exact event sequence (the trace format is an API — any
// change to emission order or event fields must show up here as a
// reviewed golden update), the sharded runtime's merged trace is
// bit-identical to the single shard's at every shard count, and a
// trace replays into the same counters the live sinks report.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/rng.h"
#include "models/model_factory.h"
#include "obs/trace.h"
#include "obs/trace_merge.h"
#include "obs/trace_sink.h"
#include "runtime/sharded_engine.h"

namespace dkf {
namespace {

StateModel ScalarModel(double process_variance = 0.05) {
  ModelNoise noise;
  noise.process_variance = process_variance;
  noise.measurement_variance = 0.05;
  return MakeLinearModel(1, 1.0, noise).value();
}

std::string Render(const std::vector<TraceEvent>& events) {
  std::string out;
  for (const TraceEvent& event : events) {
    out += FormatTraceEvent(event);
    out += '\n';
  }
  return out;
}

// --- 1. The pinned canonical run: one scalar source, perfect channel,
// --- heartbeats every 3 silent ticks, a step change at tick 4.

TEST(GoldenTraceTest, CanonicalRunEmitsPinnedEventSequence) {
#if !DKF_OBS_ENABLED
  GTEST_SKIP() << "observability compiled out (DKF_OBS=OFF)";
#endif
  ShardedStreamEngineOptions options;
  options.protocol.heartbeat_interval = 3;
  ShardedStreamEngine engine(options);
  ASSERT_TRUE(engine.EnableTracing().ok());
  ASSERT_TRUE(engine.RegisterSource(1, ScalarModel()).ok());
  ContinuousQuery query;
  query.id = 1;
  query.source_id = 1;
  query.precision = 0.8;
  ASSERT_TRUE(engine.SubmitQuery(query).ok());

  const double readings[] = {0.0, 0.0, 0.0, 0.0, 2.5,
                             2.5, 2.5, 2.5, 2.5, 2.5};
  for (int64_t t = 0; t < 10; ++t) {
    ASSERT_TRUE(
        engine.ProcessTick({{1, Vector{readings[t]}}}).ok());
  }

  // The full event stream, one "<step> <source> <kind> <actor> <value>
  // <aux> <detail>" line per event. Deviations are shortest-round-trip
  // doubles, so this pins the filter arithmetic bit-for-bit too: four
  // quiet ticks (heartbeat after 3 silent ones), the step change at
  // tick 4 transmitting the full 2.5 deviation, one follow-up transmit
  // while the filter converges, then suppression with the residual
  // deviation shrinking tick over tick until the next heartbeat.
  const std::string kGolden =
      "0 1 suppress source 0 0.8 0\n"
      "1 1 suppress source 0 0.8 0\n"
      "2 1 suppress source 0 0.8 0\n"
      "2 1 heartbeat_sent source 0 0 1\n"
      "2 1 heartbeat_received server 0 0 1\n"
      "3 1 suppress source 0 0.8 0\n"
      "4 1 transmit source 2.5 0.8 2\n"
      "4 1 update_applied server 0 0 2\n"
      "5 1 suppress source 0.4808690137597047 0.8 0\n"
      "6 1 transmit source 0.9617860711814896 0.8 3\n"
      "6 1 update_applied server 0 0 3\n"
      "7 1 suppress source 0.0080310001955608 0.8 0\n"
      "8 1 suppress source 0.013088034558436767 0.8 0\n"
      "9 1 suppress source 0.018145068921312735 0.8 0\n"
      "9 1 heartbeat_sent source 0 0 4\n"
      "9 1 heartbeat_received server 0 0 4\n";
  EXPECT_EQ(Render(engine.MergedTrace()), kGolden);

  // The same run replays into the snapshot's counters.
  MetricsRegistry replayed;
  ReplayTrace(engine.MergedTrace(), &replayed);
  EXPECT_TRUE(replayed.SameCounters(engine.MetricsSnapshot()));
  EXPECT_EQ(replayed.counter("trace.suppress"), 8);
  EXPECT_EQ(replayed.counter("trace.transmit"), 2);
  EXPECT_DOUBLE_EQ(replayed.gauge("suppression_ratio"), 0.8);
}

// --- 2 + 3. Shard invariance and replay, under a lossy channel.

constexpr int kNumSources = 9;

ChannelOptions LossyChannel() {
  ChannelOptions options;
  options.seed = 77;
  options.drop_probability = 0.25;
  return options;
}

ProtocolOptions TracedProtocol() {
  ProtocolOptions protocol;
  protocol.heartbeat_interval = 4;
  protocol.staleness_budget = 6;
  return protocol;
}

void InstallWorkload(ShardedStreamEngine& system) {
  ASSERT_TRUE(system.EnableTracing().ok());
  for (int id = 1; id <= kNumSources; ++id) {
    ASSERT_TRUE(
        system.RegisterSource(id, ScalarModel(0.02 + 0.01 * (id % 3))).ok());
    ContinuousQuery query;
    query.id = id;
    query.source_id = id;
    query.precision = 1.0 + 0.5 * (id % 4);
    ASSERT_TRUE(system.SubmitQuery(query).ok());
  }
}

void Drive(ShardedStreamEngine& system, int ticks) {
  Rng rng(19);
  std::vector<double> values(kNumSources + 1, 0.0);
  for (int t = 0; t < ticks; ++t) {
    std::map<int, Vector> readings;
    for (int id = 1; id <= kNumSources; ++id) {
      values[static_cast<size_t>(id)] += rng.Gaussian(0.04 * (id % 3), 0.7);
      readings[id] = Vector{values[static_cast<size_t>(id)]};
    }
    ASSERT_TRUE(system.ProcessTick(readings).ok()) << "tick " << t;
  }
}

TEST(GoldenTraceTest, MergedTraceIsBitIdenticalAcrossShardCounts) {
#if !DKF_OBS_ENABLED
  GTEST_SKIP() << "observability compiled out (DKF_OBS=OFF)";
#endif
  constexpr int kTicks = 250;

  // Reference: the single-shard engine's trace, normalized through the
  // same deterministic merge order.
  ShardedStreamEngineOptions single_options;
  single_options.channel = LossyChannel();
  single_options.protocol = TracedProtocol();
  ShardedStreamEngine single(single_options);
  InstallWorkload(single);
  Drive(single, kTicks);
  const std::vector<TraceEvent> reference = single.MergedTrace();
  ASSERT_FALSE(reference.empty());
  ASSERT_EQ(single.shard_sink(0)->dropped_events(), 0)
      << "ring too small for an exact comparison";
  const MetricsRegistry reference_metrics = single.MetricsSnapshot();
  EXPECT_GT(reference_metrics.counter("trace.suppress"), 0);
  EXPECT_GT(reference_metrics.counter("trace.transmit"), 0);
  EXPECT_GT(reference_metrics.counter("trace.channel_drop"), 0);
  EXPECT_GT(reference_metrics.counter("trace.heartbeat_sent"), 0);

  for (int shards : {2, 4, 8}) {
    ShardedStreamEngineOptions options;
    options.num_shards = shards;
    options.channel = LossyChannel();
    options.protocol = TracedProtocol();
    ShardedStreamEngine engine(options);
    InstallWorkload(engine);
    Drive(engine, kTicks);

    const std::vector<TraceEvent> merged = engine.MergedTrace();
    ASSERT_EQ(merged.size(), reference.size()) << "shards=" << shards;
    // Bit-identical: every field of every event, in one deterministic
    // order, regardless of how sources landed on shards.
    EXPECT_TRUE(merged == reference) << "shards=" << shards;

    // The merged metrics snapshot matches exactly too (counters, the
    // additive in-flight gauge, derived rates).
    EXPECT_TRUE(engine.MetricsSnapshot() == reference_metrics)
        << "shards=" << shards;
  }
}

TEST(GoldenTraceTest, TraceReplaysIntoIdenticalCounters) {
#if !DKF_OBS_ENABLED
  GTEST_SKIP() << "observability compiled out (DKF_OBS=OFF)";
#endif
  ShardedStreamEngineOptions options;
  options.num_shards = 4;
  options.channel = LossyChannel();
  options.protocol = TracedProtocol();
  ShardedStreamEngine engine(options);
  InstallWorkload(engine);
  Drive(engine, 200);

  const MetricsRegistry live = engine.MetricsSnapshot();
  MetricsRegistry replayed;
  ReplayTrace(engine.MergedTrace(), &replayed);
  // A complete trace carries every event-derived counter; only sampled
  // gauges (live component state) are beyond replay.
  EXPECT_TRUE(replayed.SameCounters(live));
  EXPECT_DOUBLE_EQ(replayed.gauge("suppression_ratio"),
                   live.gauge("suppression_ratio"));
  EXPECT_GT(live.counter("trace.suppress"), 0);
}

// --- 4. The hardened protocol on the fused path, pinned: one 3-member
// --- group beside one plain source under corruption, delay, ACK loss,
// --- an outage, heartbeats and a staleness budget, with a member removed
// --- while its frames are in flight. The fused and plain links share
// --- their ingress, divergence and heartbeat rules, so a rule wrong in
// --- both would still agree with itself; these values pin the rules.

constexpr int kPlainId = 1;
constexpr int kGroupId = 2;
constexpr int kRemovedMember = 21;
constexpr int64_t kRemoveTick = 72;
constexpr int64_t kFusedTicks = 120;

std::string RenderFaults(const ProtocolFaultStats& faults) {
  std::string out;
  for (const auto& [name, value] :
       std::vector<std::pair<const char*, int64_t>>{
           {"divergence_events", faults.divergence_events},
           {"resyncs_sent", faults.resyncs_sent},
           {"heartbeats_sent", faults.heartbeats_sent},
           {"ambiguous_acks", faults.ambiguous_acks},
           {"ticks_diverged", faults.ticks_diverged},
           {"max_recovery_ticks", faults.max_recovery_ticks},
           {"resyncs_applied", faults.resyncs_applied},
           {"heartbeats_received", faults.heartbeats_received},
           {"rejected_stale", faults.rejected_stale},
           {"rejected_corrupt", faults.rejected_corrupt},
           {"sequence_gaps", faults.sequence_gaps},
           {"degraded_ticks", faults.degraded_ticks}}) {
    out += std::string(name) + "=" + std::to_string(value) + "\n";
  }
  return out;
}

TEST(GoldenTraceTest, FusedChaosRunPinsCountsAndDigest) {
#if !DKF_OBS_ENABLED
  GTEST_SKIP() << "observability compiled out (DKF_OBS=OFF)";
#endif
  ShardedStreamEngineOptions options;
  options.channel.seed = 11;
  FaultModel fault;
  fault.delay = DelayModel{/*min_ticks=*/0, /*max_ticks=*/2};
  fault.outages.push_back(OutageWindow{/*start=*/40, /*end=*/48});
  fault.ack_loss_probability = 0.08;
  fault.corruption_probability = 0.08;
  options.channel.fault = fault;
  options.protocol.heartbeat_interval = 3;
  options.protocol.staleness_budget = 4;
  options.protocol.resync_burst_retries = 3;
  options.protocol.resync_retry_backoff = 4;
  ShardedStreamEngine engine(options);
  ASSERT_TRUE(engine.EnableTracing().ok());
  ASSERT_TRUE(engine.RegisterSource(kPlainId, ScalarModel()).ok());
  ContinuousQuery query;
  query.id = 1;
  query.source_id = kPlainId;
  query.precision = 0.7;
  ASSERT_TRUE(engine.SubmitQuery(query).ok());
  FusionGroupConfig group;
  group.group_id = kGroupId;
  group.model = ScalarModel(0.04);
  group.member_ids = {20, kRemovedMember, 22};
  group.delta = 0.9;
  ASSERT_TRUE(engine.RegisterFusionGroup(group).ok());

  Rng rng(5);
  double truth = 0.0;
  for (int64_t t = 0; t < kFusedTicks; ++t) {
    if (t == kRemoveTick) {
      ASSERT_TRUE(engine.RemoveFusionMember(kGroupId, kRemovedMember).ok());
    }
    truth += rng.Gaussian(0.05, 0.5);
    std::map<int, Vector> readings;
    readings[kPlainId] = Vector{truth + rng.Gaussian(0.0, 0.3)};
    for (int member : {20, kRemovedMember, 22}) {
      const double noise = rng.Gaussian(0.0, 0.2);
      if (member == kRemovedMember && t >= kRemoveTick) continue;
      readings[member] = Vector{truth + noise};
    }
    ASSERT_TRUE(engine.ProcessTick(readings).ok()) << "tick " << t;
  }
  const std::vector<TraceEvent> trace = engine.MergedTrace();
  ASSERT_EQ(engine.shard_sink(0)->dropped_events(), 0);

  // The removed member's in-flight frames landed after its removal: one
  // passed the checksum and was stale-rejected as an unknown sender, one
  // was corrupted in flight and counted corrupt all the same.
  int64_t late_stale = 0;
  int64_t late_corrupt = 0;
  std::vector<int64_t> counts(kNumTraceEventKinds, 0);
  for (const TraceEvent& event : trace) {
    ++counts[static_cast<size_t>(event.kind)];
    if (event.source_id != kRemovedMember || event.step < kRemoveTick) {
      continue;
    }
    if (event.kind == TraceEventKind::kStaleReject) ++late_stale;
    if (event.kind == TraceEventKind::kCorruptReject) ++late_corrupt;
  }
  EXPECT_GT(late_stale, 0);
  EXPECT_GT(late_corrupt, 0);

  std::string rendered_counts;
  for (int kind = 0; kind < kNumTraceEventKinds; ++kind) {
    if (counts[static_cast<size_t>(kind)] == 0) continue;
    rendered_counts +=
        std::string(TraceEventKindName(static_cast<TraceEventKind>(kind))) +
        "=" + std::to_string(counts[static_cast<size_t>(kind)]) + "\n";
  }
  EXPECT_EQ(rendered_counts,
            "suppress=37\n"
            "transmit=53\n"
            "divergence=106\n"
            "resync_sent=149\n"
            "heal=105\n"
            "heartbeat_sent=57\n"
            "update_applied=16\n"
            "resync_applied=110\n"
            "heartbeat_received=11\n"
            "corrupt_reject=23\n"
            "stale_reject=144\n"
            "degraded_tick=70\n"
            "channel_outage=20\n"
            "channel_corrupt=23\n"
            "channel_delay=235\n"
            "channel_ack_loss=26\n"
            "fused_suppress=199\n"
            "fused_update=24\n"
            "fused_broadcast=87\n");
  EXPECT_EQ(RenderFaults(engine.fusion_stats().faults),
            "divergence_events=68\n"
            "resyncs_sent=85\n"
            "heartbeats_sent=50\n"
            "ambiguous_acks=68\n"
            "ticks_diverged=69\n"
            "max_recovery_ticks=7\n"
            "resyncs_applied=63\n"
            "heartbeats_received=9\n"
            "rejected_stale=104\n"
            "rejected_corrupt=11\n"
            "sequence_gaps=128\n"
            "degraded_ticks=14\n");
  EXPECT_EQ(RenderFaults(engine.fault_stats()),
            "divergence_events=38\n"
            "resyncs_sent=64\n"
            "heartbeats_sent=7\n"
            "ambiguous_acks=38\n"
            "ticks_diverged=61\n"
            "max_recovery_ticks=11\n"
            "resyncs_applied=47\n"
            "heartbeats_received=2\n"
            "rejected_stale=40\n"
            "rejected_corrupt=12\n"
            "sequence_gaps=57\n"
            "degraded_ticks=56\n");
  // Every event of the run, field by field, in merge order.
  const std::string rendered = Render(trace);
  EXPECT_EQ(Fnv1a64(reinterpret_cast<const uint8_t*>(rendered.data()),
                    rendered.size()),
            0x5fbccce12d869825ULL);
}

}  // namespace
}  // namespace dkf
