// Crash-recovery chaos harness for the checkpoint subsystem
// (docs/checkpoint.md): the fleet workload from dsms/chaos_test.cc —
// Bernoulli + Gilbert–Elliott loss, delay with reordering, an outage
// window, ACK loss, and payload corruption, all at once — is
// interrupted mid-outage by Save, restored (at any shard count), and
// driven to the end. The restored run must be
// bit-identical to the uninterrupted one on every tick: same answers,
// same degraded flags, same fault counters, same uplink accounting,
// same merged trace, same metrics snapshot.

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "checkpoint/snapshot.h"
#include "checkpoint/snapshot_io.h"
#include "common/rng.h"
#include "metrics/fault_stats.h"
#include "models/model_factory.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "runtime/sharded_engine.h"

namespace dkf {
namespace {

constexpr int kNumSources = 10;
constexpr int kAggregateId = 7;
constexpr int64_t kFleetFaultEnd = 280;
constexpr int64_t kFleetTicks = 420;
/// Snapshot tick — inside the 100..115 outage window, so the checkpoint
/// catches pending-resync episodes, staged in-flight messages, and
/// degraded links mid-flight.
constexpr int64_t kSnapTick = 110;

StateModel ScalarModel(double process_variance = 0.05) {
  ModelNoise noise;
  noise.process_variance = process_variance;
  noise.measurement_variance = 0.05;
  return MakeLinearModel(1, 1.0, noise).value();
}

ChannelOptions FleetChannel() {
  ChannelOptions options;
  options.seed = 77;
  options.drop_probability = 0.1;
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
  // One source also asks for smoothing, so KF_c state rides through the
  // checkpoint too.
  ContinuousQuery smoothed;
  smoothed.id = 100;
  smoothed.source_id = 3;
  smoothed.precision = 2.0;
  smoothed.smoothing_factor = 0.5;
  ASSERT_TRUE(system.SubmitQuery(smoothed).ok());
  AggregateQuery aggregate;
  aggregate.id = kAggregateId;
  aggregate.source_ids = {2, 5, 8, 9};
  aggregate.precision = 8.0;
  ASSERT_TRUE(system.SubmitAggregateQuery(aggregate).ok());
}

/// The uninterrupted run every restored run is measured against:
/// the full reading schedule plus the single-shard run's per-tick
/// answers and final accounting.
struct Reference {
  std::vector<std::map<int, Vector>> readings;  // [tick]
  /// Bit-exact per-tick scalar answers and degraded flags, [tick][id].
  std::vector<std::array<double, kNumSources + 1>> answers;
  std::vector<std::array<bool, kNumSources + 1>> degraded;
  ProtocolFaultStats faults;
  ChannelStats uplink;
  std::array<int64_t, kNumSources + 1> updates{};
  double aggregate_value = 0.0;
  int aggregate_degraded = 0;
  std::vector<TraceEvent> trace;
  MetricsRegistry metrics;
};

const Reference& GetReference() {
  static const Reference* const reference = [] {
    auto* ref = new Reference();
    Rng rng(91);
    std::vector<double> values(kNumSources + 1, 0.0);
    for (int64_t t = 0; t < kFleetTicks; ++t) {
      std::map<int, Vector> readings;
      for (int id = 1; id <= kNumSources; ++id) {
        values[static_cast<size_t>(id)] += rng.Gaussian(0.05 * (id % 3), 0.7);
        readings[id] = Vector{values[static_cast<size_t>(id)]};
      }
      ref->readings.push_back(std::move(readings));
    }

    ShardedStreamEngineOptions options;
    options.channel = FleetChannel();
    options.protocol = FleetProtocol();
    ShardedStreamEngine single(options);
    InstallChaosWorkload(single);
    for (int64_t t = 0; t < kFleetTicks; ++t) {
      EXPECT_TRUE(
          single.ProcessTick(ref->readings[static_cast<size_t>(t)]).ok())
          << "tick " << t;
      std::array<double, kNumSources + 1> answers{};
      std::array<bool, kNumSources + 1> degraded{};
      for (int id = 1; id <= kNumSources; ++id) {
        answers[static_cast<size_t>(id)] = single.Answer(id).value()[0];
        degraded[static_cast<size_t>(id)] =
            single.answer_degraded(id).value();
      }
      ref->answers.push_back(answers);
      ref->degraded.push_back(degraded);
    }
    ref->faults = single.fault_stats();
    ref->uplink = single.uplink_traffic();
    for (int id = 1; id <= kNumSources; ++id) {
      ref->updates[static_cast<size_t>(id)] =
          single.updates_sent(id).value();
    }
    const auto aggregate = single.AnswerAggregateWithStatus(kAggregateId);
    EXPECT_TRUE(aggregate.ok());
    ref->aggregate_value = aggregate.value().value;
    ref->aggregate_degraded = aggregate.value().degraded_members;
    ref->trace = single.MergedTrace();
    ref->metrics = single.MetricsSnapshot();
    EXPECT_EQ(single.shard_sink(0)->dropped_events(), 0)
        << "ring too small for exact trace comparisons";
    return ref;
  }();
  return *reference;
}

/// Drives `system` over ticks [from, to) with the reference readings.
void RunTicks(ShardedStreamEngine& system, int64_t from, int64_t to) {
  const Reference& ref = GetReference();
  for (int64_t t = from; t < to; ++t) {
    ASSERT_TRUE(system.ProcessTick(ref.readings[static_cast<size_t>(t)]).ok())
        << "tick " << t;
  }
}

/// Drives a restored system from `from` to the end, asserting bit-equal
/// answers on every tick and bit-equal accounting at the end.
void FinishAndExpectIdentical(ShardedStreamEngine& system, int64_t from,
                              const std::string& label) {
  const Reference& ref = GetReference();
  ASSERT_EQ(system.ticks(), from) << label;
  for (int64_t t = from; t < kFleetTicks; ++t) {
    ASSERT_TRUE(system.ProcessTick(ref.readings[static_cast<size_t>(t)]).ok())
        << label << " tick " << t;
    const auto& answers = ref.answers[static_cast<size_t>(t)];
    const auto& degraded = ref.degraded[static_cast<size_t>(t)];
    for (int id = 1; id <= kNumSources; ++id) {
      ASSERT_EQ(system.Answer(id).value()[0], answers[static_cast<size_t>(id)])
          << label << " tick " << t << " source " << id;
      ASSERT_EQ(system.answer_degraded(id).value(),
                degraded[static_cast<size_t>(id)])
          << label << " tick " << t << " source " << id;
    }
    if (t % 50 == 0 || t == kFleetTicks - 1) {
      ASSERT_TRUE(system.VerifyLinkConsistency().ok())
          << label << " tick " << t;
    }
  }

  const ProtocolFaultStats faults = system.fault_stats();
  EXPECT_EQ(faults.divergence_events, ref.faults.divergence_events) << label;
  EXPECT_EQ(faults.resyncs_sent, ref.faults.resyncs_sent) << label;
  EXPECT_EQ(faults.heartbeats_sent, ref.faults.heartbeats_sent) << label;
  EXPECT_EQ(faults.ambiguous_acks, ref.faults.ambiguous_acks) << label;
  EXPECT_EQ(faults.ticks_diverged, ref.faults.ticks_diverged) << label;
  EXPECT_EQ(faults.max_recovery_ticks, ref.faults.max_recovery_ticks)
      << label;
  EXPECT_EQ(faults.resyncs_applied, ref.faults.resyncs_applied) << label;
  EXPECT_EQ(faults.heartbeats_received, ref.faults.heartbeats_received)
      << label;
  EXPECT_EQ(faults.rejected_stale, ref.faults.rejected_stale) << label;
  EXPECT_EQ(faults.rejected_corrupt, ref.faults.rejected_corrupt) << label;
  EXPECT_EQ(faults.sequence_gaps, ref.faults.sequence_gaps) << label;
  EXPECT_EQ(faults.degraded_ticks, ref.faults.degraded_ticks) << label;

  const ChannelStats uplink = system.uplink_traffic();
  EXPECT_EQ(uplink.messages, ref.uplink.messages) << label;
  EXPECT_EQ(uplink.bytes, ref.uplink.bytes) << label;
  EXPECT_EQ(uplink.dropped, ref.uplink.dropped) << label;
  EXPECT_EQ(uplink.corrupted, ref.uplink.corrupted) << label;
  EXPECT_EQ(uplink.delayed, ref.uplink.delayed) << label;
  EXPECT_EQ(uplink.ack_lost, ref.uplink.ack_lost) << label;
  EXPECT_EQ(uplink.outage_dropped, ref.uplink.outage_dropped) << label;

  for (int id = 1; id <= kNumSources; ++id) {
    EXPECT_EQ(system.updates_sent(id).value(),
              ref.updates[static_cast<size_t>(id)])
        << label << " source " << id;
  }

  const auto aggregate = system.AnswerAggregateWithStatus(kAggregateId);
  ASSERT_TRUE(aggregate.ok()) << label;
  // Members sum in declared order: the value is bit-exact at any shard
  // count, like the degradation count.
  EXPECT_EQ(aggregate.value().value, ref.aggregate_value) << label;
  EXPECT_EQ(aggregate.value().degraded_members, ref.aggregate_degraded)
      << label;

  EXPECT_TRUE(system.MergedTrace() == ref.trace)
      << label << ": merged trace differs";
  EXPECT_TRUE(system.MetricsSnapshot() == ref.metrics)
      << label << ": metrics snapshot differs";
  EXPECT_TRUE(system.VerifyMirrorConsistency().ok()) << label;
}

std::string SnapshotPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// A single-shard snapshot taken mid-outage, shared by the tests below.
const std::string& SingleShardSnapshotFile() {
  static const std::string* const path = [] {
    auto* p = new std::string(SnapshotPath("single_chaos.dkfsnap"));
    ShardedStreamEngineOptions options;
    options.channel = FleetChannel();
    options.protocol = FleetProtocol();
    ShardedStreamEngine single(options);
    InstallChaosWorkload(single);
    RunTicks(single, 0, kSnapTick);
    EXPECT_TRUE(single.Save(*p).ok());
    return p;
  }();
  return *path;
}

/// An engine snapshot (3 shards — deliberately a count the restores
/// below never reuse) taken at the same tick.
const std::string& EngineSnapshotFile() {
  static const std::string* const path = [] {
    auto* p = new std::string(SnapshotPath("engine_chaos.dkfsnap"));
    ShardedStreamEngineOptions options;
    options.num_shards = 3;
    options.channel = FleetChannel();
    options.protocol = FleetProtocol();
    ShardedStreamEngine engine(options);
    InstallChaosWorkload(engine);
    RunTicks(engine, 0, kSnapTick);
    EXPECT_TRUE(engine.Save(*p).ok());
    return p;
  }();
  return *path;
}

TEST(CheckpointChaosTest, SingleShardSnapshotReshardsElastically) {
  // num_shards = 0 keeps the snapshot's own (single-shard) layout.
  for (int shards : {0, 2, 4}) {
    auto restored_or =
        ShardedStreamEngine::Restore(SingleShardSnapshotFile(), shards);
    ASSERT_TRUE(restored_or.ok()) << restored_or.status().message();
    ASSERT_EQ(restored_or.value()->num_shards(), std::max(shards, 1));
    FinishAndExpectIdentical(*restored_or.value(), kSnapTick,
                             "engine(1)->engine(" + std::to_string(shards) +
                                 ")");
  }
}

TEST(CheckpointChaosTest, EngineSnapshotReshardsElastically) {
  for (int shards : {1, 2, 8}) {
    auto restored_or =
        ShardedStreamEngine::Restore(EngineSnapshotFile(), shards);
    ASSERT_TRUE(restored_or.ok()) << restored_or.status().message();
    ASSERT_EQ(restored_or.value()->num_shards(), shards);
    FinishAndExpectIdentical(*restored_or.value(), kSnapTick,
                             "engine(3)->engine(" + std::to_string(shards) +
                                 ")");
  }
  // num_shards = 0 keeps the snapshot's own count.
  auto restored_or = ShardedStreamEngine::Restore(EngineSnapshotFile());
  ASSERT_TRUE(restored_or.ok()) << restored_or.status().message();
  ASSERT_EQ(restored_or.value()->num_shards(), 3);
  FinishAndExpectIdentical(*restored_or.value(), kSnapTick,
                           "engine(3)->engine(3)");
}

TEST(CheckpointChaosTest, QueriesSurviveRestoreAndStayReconfigurable) {
  auto restored_or = ShardedStreamEngine::Restore(SingleShardSnapshotFile());
  ASSERT_TRUE(restored_or.ok());
  ShardedStreamEngine& engine = *restored_or.value();
  // The registry came back verbatim: per-source deltas match the
  // installed workload, including the aggregate's synthetic members.
  EXPECT_EQ(engine.registry().size(),
            static_cast<size_t>(kNumSources + 1 + 4));
  EXPECT_EQ(engine.source_delta(1).value(), 1.5);  // precision 1.0+0.5*1
  // Query churn still works after a restore, and lands exactly as in the
  // uninterrupted run.
  ShardedStreamEngineOptions options;
  options.channel = FleetChannel();
  options.protocol = FleetProtocol();
  ShardedStreamEngine twin(options);
  InstallChaosWorkload(twin);
  RunTicks(twin, 0, kSnapTick);
  ContinuousQuery tight;
  tight.id = 200;
  tight.source_id = 1;
  tight.precision = 0.25;
  // A delta-only change on the smoothed source: the restored node
  // carries its KF_c factor, so the smoother keeps running. Restarting
  // it would feed the mirror different smoothed values from then on.
  ContinuousQuery smoothed_tight;
  smoothed_tight.id = 201;
  smoothed_tight.source_id = 3;
  smoothed_tight.precision = 0.5;
  for (ShardedStreamEngine* system : {&engine, &twin}) {
    // Removing the aggregate relaxes its members back to their
    // point-query deltas.
    ASSERT_TRUE(system->RemoveAggregateQuery(kAggregateId).ok());
    EXPECT_EQ(system->AnswerAggregateCanonical(kAggregateId).ok(), false);
    ASSERT_TRUE(system->SubmitQuery(tight).ok());
    ASSERT_TRUE(system->SubmitQuery(smoothed_tight).ok());
  }
  EXPECT_EQ(engine.source_delta(1).value(), 0.25);
  EXPECT_EQ(engine.source_delta(3).value(), 0.5);
  EXPECT_EQ(engine.control_messages(), twin.control_messages());
  const Reference& ref = GetReference();
  for (int64_t t = kSnapTick; t < kFleetTicks; ++t) {
    const std::map<int, Vector>& readings =
        ref.readings[static_cast<size_t>(t)];
    ASSERT_TRUE(engine.ProcessTick(readings).ok()) << "tick " << t;
    ASSERT_TRUE(twin.ProcessTick(readings).ok()) << "tick " << t;
    for (int id = 1; id <= kNumSources; ++id) {
      ASSERT_EQ(engine.Answer(id).value()[0], twin.Answer(id).value()[0])
          << "tick " << t << " source " << id;
    }
  }
  EXPECT_EQ(engine.control_messages(), twin.control_messages());
}

TEST(CheckpointChaosTest, SharedRngSnapshotWithFaultsIsRejected) {
  // A snapshot whose channel options ask for one shared fault stream
  // cannot be replayed: the engine draws per-source streams, so the
  // fault sequence would silently change. The restore must refuse.
  auto snapshot_or = LoadSnapshotFile(SingleShardSnapshotFile());
  ASSERT_TRUE(snapshot_or.ok()) << snapshot_or.status().message();
  EngineSnapshot snapshot = std::move(snapshot_or).value();
  snapshot.channel.per_source_rng = false;
  const std::string path = SnapshotPath("shared_rng.dkfsnap");
  ASSERT_TRUE(SaveSnapshotFile(snapshot, path).ok());

  auto engine_or = ShardedStreamEngine::Restore(path);
  ASSERT_FALSE(engine_or.ok());
  EXPECT_EQ(engine_or.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(engine_or.status().message().find("shared channel RNG"),
            std::string::npos);
}

TEST(CheckpointChaosTest, HugeShardCountIsRejectedCleanly) {
  // A well-formed file whose header asks for more shards than the
  // engine restores must fail with a Status when the caller leaves the
  // count to the snapshot (num_shards = 0), not spawn a thread apiece.
  auto snapshot_or = LoadSnapshotFile(SingleShardSnapshotFile());
  ASSERT_TRUE(snapshot_or.ok()) << snapshot_or.status().message();
  EngineSnapshot snapshot = std::move(snapshot_or).value();
  const std::string path = SnapshotPath("huge_shards.dkfsnap");
  for (int shards : {kMaxShards + 1, std::numeric_limits<int>::max()}) {
    snapshot.num_shards = shards;
    ASSERT_TRUE(SaveSnapshotFile(snapshot, path).ok());
    auto engine_or = ShardedStreamEngine::Restore(path);
    ASSERT_FALSE(engine_or.ok()) << shards;
    EXPECT_EQ(engine_or.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(engine_or.status().message().find("shards"), std::string::npos)
        << engine_or.status().message();
  }
  // An explicit override replaces the hostile count.
  auto overridden = ShardedStreamEngine::Restore(path, 2);
  EXPECT_TRUE(overridden.ok()) << overridden.status().message();

  // The limit itself is accepted.
  snapshot.num_shards = kMaxShards;
  ASSERT_TRUE(SaveSnapshotFile(snapshot, path).ok());
  auto at_limit = ShardedStreamEngine::Restore(path);
  ASSERT_TRUE(at_limit.ok()) << at_limit.status().message();
  EXPECT_EQ(at_limit.value()->num_shards(), kMaxShards);
}

TEST(CheckpointChaosTest, HugeTraceRingIsRejectedCleanly) {
  // A well-formed file (valid checksum) asking for a 2^62-event trace
  // ring must fail the restore with a Status, not abort on allocation.
  auto snapshot_or = LoadSnapshotFile(SingleShardSnapshotFile());
  ASSERT_TRUE(snapshot_or.ok()) << snapshot_or.status().message();
  EngineSnapshot snapshot = std::move(snapshot_or).value();
  ASSERT_TRUE(snapshot.obs.enabled);
  snapshot.obs.options.ring_capacity = size_t{1} << 62;
  const std::string path = SnapshotPath("huge_ring.dkfsnap");
  ASSERT_TRUE(SaveSnapshotFile(snapshot, path).ok());

  auto engine_or = ShardedStreamEngine::Restore(path);
  ASSERT_FALSE(engine_or.ok());
  EXPECT_EQ(engine_or.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(engine_or.status().message().find("trace ring capacity"),
            std::string::npos)
      << engine_or.status().message();

  // The limit itself is accepted.
  snapshot.obs.options.ring_capacity = kMaxTraceRingCapacity;
  ASSERT_TRUE(SaveSnapshotFile(snapshot, path).ok());
  auto at_limit = ShardedStreamEngine::Restore(path);
  EXPECT_TRUE(at_limit.ok()) << at_limit.status().message();
}

// ---- serving-layer continuation --------------------------------------

constexpr int64_t kServeTicks = 200;
constexpr int64_t kServeDrainTick = 60;
constexpr int64_t kServeLateAttachTick = 80;

/// A standing-query mix covering every subscription kind, attached at
/// tick 0 (ids 1..4); a late band (id 6) attaches mid-run before the
/// snapshot so a mid-run attach's state rides through the checkpoint.
void InstallServeSubscriptions(ShardedStreamEngine& system) {
  Subscription point;
  point.id = 1;
  point.kind = SubscriptionKind::kPoint;
  point.source_id = 1;
  ASSERT_TRUE(system.Subscribe(point).ok());
  Subscription band;
  band.id = 2;
  band.kind = SubscriptionKind::kBandAlert;
  band.source_id = 2;
  band.lo = -2.0;
  band.hi = 2.0;
  band.uncertainty_ceiling = 0.3;
  ASSERT_TRUE(system.Subscribe(band).ok());
  Subscription range;
  range.id = 3;
  range.kind = SubscriptionKind::kRangePredicate;
  range.source_id = 5;
  range.lo = 0.0;
  range.hi = 10.0;
  ASSERT_TRUE(system.Subscribe(range).ok());
  Subscription agg;
  agg.id = 4;
  agg.kind = SubscriptionKind::kAggregate;
  agg.aggregate_id = kAggregateId;
  ASSERT_TRUE(system.Subscribe(agg).ok());
}

Subscription LateBand() {
  Subscription late;
  late.id = 6;
  late.kind = SubscriptionKind::kBandAlert;
  late.source_id = 9;
  late.lo = -1.0;
  late.hi = 4.0;
  return late;
}

/// The uninterrupted serve run (notification stream + counters) and the
/// snapshot its interrupted twin saved mid-outage. The early drain puts
/// a nontrivial delivery cursor and a partially drained buffer into the
/// checkpoint.
struct ServeReference {
  std::string snapshot_path;
  std::vector<NotificationBatch> early;  // drained at kServeDrainTick
  std::vector<NotificationBatch> late;   // drained at the end
  ServeStats stats;
};

const ServeReference& GetServeReference() {
  static const ServeReference* const reference = [] {
    auto* ref = new ServeReference();
    ref->snapshot_path = SnapshotPath("serve_chaos.dkfsnap");
    ShardedStreamEngineOptions options;
    options.channel = FleetChannel();
    options.protocol = FleetProtocol();

    ShardedStreamEngine single(options);
    InstallChaosWorkload(single);
    InstallServeSubscriptions(single);
    RunTicks(single, 0, kServeDrainTick);
    ref->early = single.DrainNotifications();
    RunTicks(single, kServeDrainTick, kServeLateAttachTick);
    EXPECT_TRUE(single.Subscribe(LateBand()).ok());
    RunTicks(single, kServeLateAttachTick, kServeTicks);
    ref->late = single.DrainNotifications();
    ref->stats = single.serve_stats();
    EXPECT_FALSE(ref->late.empty());

    ShardedStreamEngine twin(options);
    InstallChaosWorkload(twin);
    InstallServeSubscriptions(twin);
    RunTicks(twin, 0, kServeDrainTick);
    EXPECT_TRUE(twin.DrainNotifications() == ref->early);
    RunTicks(twin, kServeDrainTick, kServeLateAttachTick);
    EXPECT_TRUE(twin.Subscribe(LateBand()).ok());
    RunTicks(twin, kServeLateAttachTick, kSnapTick);
    EXPECT_TRUE(twin.Save(ref->snapshot_path).ok());
    return ref;
  }();
  return *reference;
}

TEST(CheckpointChaosTest, ServeDeliveryContinuesBitIdenticallyAcrossRestore) {
  const ServeReference& ref = GetServeReference();

  for (int shards : {1, 2, 4, 8}) {
    auto engine_or = ShardedStreamEngine::Restore(ref.snapshot_path, shards);
    ASSERT_TRUE(engine_or.ok()) << engine_or.status().message();
    ShardedStreamEngine& engine = *engine_or.value();
    ASSERT_EQ(engine.num_subscriptions(), 5u);
    RunTicks(engine, kSnapTick, kServeTicks);
    EXPECT_TRUE(engine.DrainNotifications() == ref.late)
        << "engine(1)->engine(" << shards << ") notification stream differs";
    const ServeStats merged = engine.serve_stats();
    EXPECT_EQ(merged.subscriptions, 5);
    EXPECT_EQ(merged.notifications, ref.stats.notifications) << shards;
    EXPECT_EQ(merged.touched, ref.stats.touched) << shards;
    EXPECT_EQ(merged.affected, ref.stats.affected) << shards;
    EXPECT_EQ(merged.dropped, 0) << shards;
  }
}

// ---- governor continuation -------------------------------------------

/// Governor knobs for the continuation runs. With 16-tick epochs the
/// boundaries land after ticks 95 and 111, so kSnapTick = 110 catches
/// the controller mid-epoch: its EWMA rates, sensitivity fits, and
/// freeze flags must come back verbatim for the post-restore epoch at
/// tick 111 to allocate identically.
GovernorOptions SnapGovernor() {
  GovernorOptions governor;
  governor.enabled = true;
  governor.epoch_ticks = 16;
  governor.budget_bytes_per_tick = 140.0;
  governor.delta_floor = 0.05;
  governor.delta_ceiling = 64.0;
  governor.max_step_ratio = 2.0;
  governor.dead_band = 0.10;
  return governor;
}

/// The uninterrupted governed run (per-tick answers from the snapshot
/// tick on, final delta schedule, merged trace, controller state) and
/// the snapshot its interrupted twin saved mid-outage, mid-epoch.
struct GovernorReference {
  std::string snapshot_path;
  std::vector<std::array<double, kNumSources + 1>> answers;  // from kSnapTick
  std::array<double, kNumSources + 1> deltas{};
  std::vector<TraceEvent> trace;
  int64_t epochs = 0;
  std::map<int, DeltaGovernor::SourceState> states;
};

const GovernorReference& GetGovernorReference() {
  static const GovernorReference* const reference = [] {
    auto* ref = new GovernorReference();
    ref->snapshot_path = SnapshotPath("governor_chaos.dkfsnap");
    ShardedStreamEngineOptions options;
    options.num_shards = 3;
    options.channel = FleetChannel();
    options.protocol = FleetProtocol();
    options.governor = SnapGovernor();

    ShardedStreamEngine engine(options);
    InstallChaosWorkload(engine);
    const Reference& readings = GetReference();
    for (int64_t t = 0; t < kFleetTicks; ++t) {
      EXPECT_TRUE(
          engine.ProcessTick(readings.readings[static_cast<size_t>(t)]).ok())
          << "tick " << t;
      if (t >= kSnapTick) {
        std::array<double, kNumSources + 1> answers{};
        for (int id = 1; id <= kNumSources; ++id) {
          answers[static_cast<size_t>(id)] = engine.Answer(id).value()[0];
        }
        ref->answers.push_back(answers);
      }
    }
    for (int id = 1; id <= kNumSources; ++id) {
      ref->deltas[static_cast<size_t>(id)] = engine.source_delta(id).value();
    }
    ref->trace = engine.MergedTrace();
    ref->epochs = engine.governor()->epochs();
    ref->states = engine.governor()->states();
    EXPECT_EQ(ref->epochs, kFleetTicks / 16);
    EXPECT_EQ(engine.shard_sink(0)->dropped_events(), 0)
        << "ring too small for exact trace comparisons";

    ShardedStreamEngine twin(options);
    InstallChaosWorkload(twin);
    RunTicks(twin, 0, kSnapTick);
    EXPECT_TRUE(twin.Save(ref->snapshot_path).ok());
    return ref;
  }();
  return *reference;
}

TEST(CheckpointChaosTest, GovernorResumesMidEpochBitIdentically) {
  const GovernorReference& ref = GetGovernorReference();
  const Reference& readings = GetReference();
  for (int shards : {1, 2, 8}) {
    const std::string label =
        "governor(3)->engine(" + std::to_string(shards) + ")";
    auto engine_or = ShardedStreamEngine::Restore(ref.snapshot_path, shards);
    ASSERT_TRUE(engine_or.ok()) << label << ": "
                                << engine_or.status().message();
    ShardedStreamEngine& engine = *engine_or.value();
    ASSERT_EQ(engine.num_shards(), shards) << label;
    ASSERT_EQ(engine.ticks(), kSnapTick) << label;
    ASSERT_NE(engine.governor(), nullptr) << label;
    for (int64_t t = kSnapTick; t < kFleetTicks; ++t) {
      ASSERT_TRUE(
          engine.ProcessTick(readings.readings[static_cast<size_t>(t)]).ok())
          << label << " tick " << t;
      const auto& answers = ref.answers[static_cast<size_t>(t - kSnapTick)];
      for (int id = 1; id <= kNumSources; ++id) {
        ASSERT_EQ(engine.Answer(id).value()[0],
                  answers[static_cast<size_t>(id)])
            << label << " tick " << t << " source " << id;
      }
    }
    for (int id = 1; id <= kNumSources; ++id) {
      EXPECT_EQ(engine.source_delta(id).value(),
                ref.deltas[static_cast<size_t>(id)])
          << label << " source " << id;
    }
    EXPECT_TRUE(engine.MergedTrace() == ref.trace)
        << label << ": merged trace differs";
    EXPECT_EQ(engine.governor()->epochs(), ref.epochs) << label;
    EXPECT_TRUE(engine.governor()->states() == ref.states)
        << label << ": controller state differs";
  }
}

TEST(CheckpointChaosTest, UntracedSystemRoundTripsWithTracingOff) {
  const std::string path = SnapshotPath("untraced.dkfsnap");
  ShardedStreamEngineOptions options;
  options.channel = FleetChannel();
  options.protocol = FleetProtocol();
  ShardedStreamEngine engine(options);
  // Workload without EnableTracing.
  for (int id = 1; id <= kNumSources; ++id) {
    ASSERT_TRUE(engine.RegisterSource(id, ScalarModel()).ok());
  }
  RunTicks(engine, 0, 40);
  ASSERT_TRUE(engine.Save(path).ok());
  auto restored_or = ShardedStreamEngine::Restore(path);
  ASSERT_TRUE(restored_or.ok()) << restored_or.status().message();
  EXPECT_EQ(restored_or.value()->shard_sink(0), nullptr);
  EXPECT_EQ(restored_or.value()->ticks(), 40);
}

}  // namespace
}  // namespace dkf
