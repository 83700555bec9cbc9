// Checkpoint coverage for the fusion subsystem (docs/checkpoint.md): a
// snapshot taken mid-outage carries every fused posterior, member
// mirror, protocol cursor, and channel lane, and the restored run — at
// any shard count — continues bit-identically.

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "models/model_factory.h"
#include "runtime/sharded_engine.h"
#include "serve/subscription.h"

namespace dkf {
namespace {

constexpr int kGroupId = 4;
constexpr int kPlainSource = 1;
constexpr int64_t kTicks = 220;
/// Inside the 100..115 outage window, so the checkpoint catches stale
/// fused mirrors, pending resyncs, and staged in-flight fused frames.
constexpr int64_t kSnapTick = 110;
constexpr int64_t kJoinTick = 60;
constexpr int64_t kLeaveTick = 80;
constexpr int kJoiner = 103;
constexpr int kLeaver = 101;

StateModel ScalarModel(double process_variance = 0.05) {
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
  fault.ack_loss_probability = 0.05;
  fault.corruption_probability = 0.03;
  fault.active_until = 180;
  options.fault = fault;
  return options;
}

ProtocolOptions ChaosProtocol() {
  ProtocolOptions protocol;
  protocol.heartbeat_interval = 3;
  protocol.staleness_budget = 5;
  protocol.resync_burst_retries = 4;
  protocol.resync_retry_backoff = 6;
  return protocol;
}

std::vector<int> ActiveMembers(int64_t tick) {
  std::vector<int> members = {100, 101, 102};
  if (tick >= kJoinTick) members.push_back(kJoiner);
  if (tick >= kLeaveTick) std::erase(members, kLeaver);
  return members;
}

std::map<int, Vector> ReadingsAt(int64_t tick) {
  std::map<int, Vector> readings;
  readings[kPlainSource] =
      Vector{std::sin(0.05 * static_cast<double>(tick))};
  const double truth = 0.04 * static_cast<double>(tick) +
                       2.0 * std::sin(0.08 * static_cast<double>(tick));
  for (int id : ActiveMembers(tick)) {
    readings[id] = Vector{
        truth + 0.03 * std::sin(0.9 * static_cast<double>(tick) + id)};
  }
  return readings;
}

void InstallWorkload(ShardedStreamEngine& system) {
  ASSERT_TRUE(system.RegisterSource(kPlainSource, ScalarModel()).ok());
  ContinuousQuery query;
  query.id = 1;
  query.source_id = kPlainSource;
  query.precision = 1.0;
  ASSERT_TRUE(system.SubmitQuery(query).ok());
  FusionGroupConfig group;
  group.group_id = kGroupId;
  group.model = ScalarModel(0.04);
  group.member_ids = {100, 101, 102};
  group.delta = 3.0;
  ASSERT_TRUE(system.RegisterFusionGroup(group).ok());
  FusedQuery fused_query;
  fused_query.id = 9;
  fused_query.group_id = kGroupId;
  fused_query.precision = 0.8;
  fused_query.description = "fused temperature";
  ASSERT_TRUE(system.SubmitFusedQuery(fused_query).ok());
  Subscription fused_sub;
  fused_sub.id = 2;
  fused_sub.kind = SubscriptionKind::kFused;
  fused_sub.group_id = kGroupId;
  ASSERT_TRUE(system.Subscribe(fused_sub).ok());
  // A plain subscription rides along beside the fused one.
  Subscription point_sub;
  point_sub.id = 3;
  point_sub.kind = SubscriptionKind::kPoint;
  point_sub.source_id = kPlainSource;
  ASSERT_TRUE(system.Subscribe(point_sub).ok());
}

/// Drives `system` over [from, to), churning membership at the fixed
/// ticks (only when they fall inside the window).
void Drive(ShardedStreamEngine& system, int64_t from, int64_t to) {
  for (int64_t t = from; t < to; ++t) {
    if (t == kJoinTick) {
      ASSERT_TRUE(system.AddFusionMember(kGroupId, kJoiner).ok());
    }
    if (t == kLeaveTick) {
      ASSERT_TRUE(system.RemoveFusionMember(kGroupId, kLeaver).ok());
    }
    ASSERT_TRUE(system.ProcessTick(ReadingsAt(t)).ok()) << "tick " << t;
  }
}

/// The uninterrupted run: per-tick fused answers from the snapshot tick
/// on, the late notification stream, and final accounting — plus the
/// snapshot its interrupted twin saved mid-outage (after the membership
/// churn, so the churned roster rides through the checkpoint).
struct CheckpointReference {
  std::string snapshot_path;
  std::vector<double> fused;     // [t - kSnapTick]
  std::vector<bool> degraded;    // [t - kSnapTick]
  std::vector<double> plain;     // [t - kSnapTick]
  FusionStats stats;
  std::vector<NotificationBatch> late;  // drained at kSnapTick and at end
};

const CheckpointReference& GetCheckpointReference() {
  static const CheckpointReference* const reference = [] {
    auto* ref = new CheckpointReference();
    ref->snapshot_path =
        ::testing::TempDir() + "/fusion_chaos.dkfsnap";
    ShardedStreamEngineOptions options;
    options.channel = ChaosChannel();
    options.protocol = ChaosProtocol();

    ShardedStreamEngine single(options);
    InstallWorkload(single);
    Drive(single, 0, kSnapTick);
    // No drain before the snapshot point: the undrained buffer (which
    // holds fused notifications from before the save) must ride through
    // the checkpoint, so the end-of-run drain covers the whole run for
    // both the reference and every restored system.
    for (int64_t t = kSnapTick; t < kTicks; ++t) {
      EXPECT_TRUE(single.ProcessTick(ReadingsAt(t)).ok()) << "tick " << t;
      ref->fused.push_back(single.AnswerFused(kGroupId).value()[0]);
      ref->degraded.push_back(single.fused_degraded(kGroupId).value());
      ref->plain.push_back(single.Answer(kPlainSource).value()[0]);
    }
    ref->stats = single.fusion_stats();
    ref->late = single.DrainNotifications();
    EXPECT_TRUE(single.VerifyFusedConsistency().ok());
    EXPECT_GT(ref->stats.faults.resyncs_applied, 0);

    ShardedStreamEngine twin(options);
    InstallWorkload(twin);
    Drive(twin, 0, kSnapTick);
    EXPECT_TRUE(twin.Save(ref->snapshot_path).ok());
    return ref;
  }();
  return *reference;
}

/// The churned roster came back (joiner present, leaver gone), and the
/// fused query survived: the group still runs the tightened trigger,
/// not its registration-time base.
void ExpectTopologyRestored(const ShardedStreamEngine& system,
                            const std::string& label) {
  EXPECT_EQ(system.num_fusion_groups(), 1u) << label;
  EXPECT_EQ(system.num_fusion_members(), 3u) << label;
  const FusionEngine* fusion = system.fusion_for_group(kGroupId);
  ASSERT_NE(fusion, nullptr) << label;
  EXPECT_EQ(fusion->group_members(kGroupId).value(),
            (std::vector<int>{100, 102, kJoiner}))
      << label;
  EXPECT_EQ(fusion->group_delta(kGroupId).value(), 0.8) << label;
}

void FinishAndExpectIdentical(ShardedStreamEngine& system,
                              const std::string& label) {
  const CheckpointReference& ref = GetCheckpointReference();
  ASSERT_EQ(system.ticks(), kSnapTick) << label;
  ExpectTopologyRestored(system, label);
  EXPECT_EQ(system.num_subscriptions(), 2u) << label;

  for (int64_t t = kSnapTick; t < kTicks; ++t) {
    ASSERT_TRUE(system.ProcessTick(ReadingsAt(t)).ok())
        << label << " tick " << t;
    const size_t i = static_cast<size_t>(t - kSnapTick);
    ASSERT_EQ(system.AnswerFused(kGroupId).value()[0], ref.fused[i])
        << label << " tick " << t;
    ASSERT_EQ(system.fused_degraded(kGroupId).value(), ref.degraded[i])
        << label << " tick " << t;
    ASSERT_EQ(system.Answer(kPlainSource).value()[0], ref.plain[i])
        << label << " tick " << t;
  }
  const FusionStats stats = system.fusion_stats();
  EXPECT_EQ(stats.updates_applied, ref.stats.updates_applied) << label;
  EXPECT_EQ(stats.suppressed, ref.stats.suppressed) << label;
  EXPECT_EQ(stats.transmissions, ref.stats.transmissions) << label;
  EXPECT_EQ(stats.broadcasts, ref.stats.broadcasts) << label;
  EXPECT_EQ(stats.broadcast_bytes, ref.stats.broadcast_bytes) << label;
  EXPECT_EQ(stats.faults.resyncs_applied, ref.stats.faults.resyncs_applied)
      << label;
  EXPECT_EQ(stats.faults.degraded_ticks, ref.stats.faults.degraded_ticks)
      << label;
  EXPECT_TRUE(system.DrainNotifications() == ref.late)
      << label << ": fused notification stream differs";
  EXPECT_TRUE(system.VerifyFusedConsistency().ok()) << label;
  EXPECT_TRUE(system.VerifyMirrorConsistency().ok()) << label;
}

TEST(FusionCheckpointTest, ShardedRestoreKeepsFusionBitIdentical) {
  for (int shards : {1, 2, 4, 8}) {
    auto restored_or = ShardedStreamEngine::Restore(
        GetCheckpointReference().snapshot_path, shards);
    ASSERT_TRUE(restored_or.ok()) << restored_or.status().message();
    ASSERT_EQ(restored_or.value()->num_shards(), shards);
    // The whole group landed on its pinned shard.
    EXPECT_EQ(restored_or.value()->fusion_group_shard(kGroupId),
              kGroupId % shards);
    FinishAndExpectIdentical(*restored_or.value(),
                             "engine(1)->engine(" + std::to_string(shards) +
                                 ")");
  }
}

TEST(FusionCheckpointTest, EngineSnapshotRoundTripsThroughResharding) {
  // Save from a 3-shard engine (a count the restores never reuse) and
  // restore across layouts, including back onto a single shard.
  const std::string path =
      ::testing::TempDir() + "/fusion_engine_chaos.dkfsnap";
  {
    ShardedStreamEngineOptions options;
    options.num_shards = 3;
    options.channel = ChaosChannel();
    options.protocol = ChaosProtocol();
    ShardedStreamEngine engine(options);
    InstallWorkload(engine);
    Drive(engine, 0, kSnapTick);
    ASSERT_TRUE(engine.Save(path).ok());
  }
  for (int shards : {1, 4}) {
    auto restored_or = ShardedStreamEngine::Restore(path, shards);
    ASSERT_TRUE(restored_or.ok()) << restored_or.status().message();
    FinishAndExpectIdentical(*restored_or.value(),
                             "engine(3)->engine(" + std::to_string(shards) +
                                 ")");
  }
}

TEST(FusionCheckpointTest, RestoredTopologyStaysReconfigurable) {
  auto restored_or =
      ShardedStreamEngine::Restore(GetCheckpointReference().snapshot_path);
  ASSERT_TRUE(restored_or.ok());
  ShardedStreamEngine& engine = *restored_or.value();
  // The member/source disjointness maps were rebuilt on restore.
  EXPECT_EQ(engine.AddFusionMember(kGroupId, kPlainSource).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(engine.RegisterSource(100, ScalarModel()).code(),
            StatusCode::kAlreadyExists);
  // Query churn still works: removing the fused query relaxes the group
  // back to its registration-time trigger.
  ASSERT_TRUE(engine.RemoveFusedQuery(9).ok());
  const FusionEngine* fusion = engine.fusion_for_group(kGroupId);
  ASSERT_NE(fusion, nullptr);
  EXPECT_EQ(fusion->group_delta(kGroupId).value(), 3.0);
  ASSERT_TRUE(engine.RemoveFusionMember(kGroupId, 102).ok());
  EXPECT_EQ(fusion->group_members(kGroupId).value(),
            (std::vector<int>{100, kJoiner}));
}

}  // namespace
}  // namespace dkf
