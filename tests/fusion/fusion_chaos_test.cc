// Determinism and degeneracy contracts for the fusion subsystem under
// the full chaos cocktail (docs/fusion.md §5): fused answers are
// bit-identical at every shard count (groups are pinned, so the
// intra-tick broadcast diffusion never crosses shards); a single-member
// group degenerates bit-exactly to the plain per-source dual-filter
// path; and group membership churn mid-chaos keeps the group serving
// and consistent.

#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "models/model_factory.h"
#include "runtime/sharded_engine.h"
#include "serve/subscription.h"

namespace dkf {
namespace {

constexpr int kNumPlainSources = 6;
constexpr int kGroupA = 0;
constexpr int kGroupB = 5;
constexpr int64_t kChaosTicks = 300;
constexpr int64_t kFaultEnd = 240;

const std::vector<int> kMembersA = {100, 101, 102};
const std::vector<int> kMembersB = {110, 111, 112, 113};

StateModel ScalarModel(double process_variance = 0.05) {
  ModelNoise noise;
  noise.process_variance = process_variance;
  noise.measurement_variance = 0.05;
  return MakeLinearModel(1, 1.0, noise).value();
}

/// The fleet chaos cocktail (dsms/chaos_test.cc): Bernoulli +
/// Gilbert–Elliott loss, delay with reordering, a scheduled outage, ACK
/// loss, and payload corruption, all per-source fault streams.
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
  fault.active_until = kFaultEnd;
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

/// Deterministic ground truth per group and per-member reading offsets,
/// so every system (at any shard count, with or without churn) feeds on
/// an identical schedule without a shared RNG cursor.
double GroupTruth(int group_id, int64_t tick) {
  return 0.04 * static_cast<double>(tick) +
         2.0 * std::sin(0.08 * static_cast<double>(tick) + group_id);
}

Vector MemberReading(int group_id, int member_id, int64_t tick) {
  return Vector{GroupTruth(group_id, tick) +
                0.03 * std::sin(0.9 * static_cast<double>(tick) +
                                0.7 * member_id)};
}

Vector PlainReading(int source_id, int64_t tick) {
  return Vector{0.1 * static_cast<double>(tick) * (source_id % 3) +
                std::sin(0.05 * static_cast<double>(tick) + source_id)};
}

std::map<int, Vector> FleetReadings(int64_t tick) {
  std::map<int, Vector> readings;
  for (int id = 1; id <= kNumPlainSources; ++id) {
    readings[id] = PlainReading(id, tick);
  }
  for (int id : kMembersA) readings[id] = MemberReading(kGroupA, id, tick);
  for (int id : kMembersB) readings[id] = MemberReading(kGroupB, id, tick);
  return readings;
}

void InstallFusionWorkload(ShardedStreamEngine& system) {
  for (int id = 1; id <= kNumPlainSources; ++id) {
    ASSERT_TRUE(system.RegisterSource(id, ScalarModel()).ok());
    ContinuousQuery query;
    query.id = id;
    query.source_id = id;
    query.precision = 1.0 + 0.5 * (id % 3);
    ASSERT_TRUE(system.SubmitQuery(query).ok());
  }
  FusionGroupConfig group_a;
  group_a.group_id = kGroupA;
  group_a.model = ScalarModel(0.04);
  group_a.member_ids = kMembersA;
  group_a.delta = 2.0;
  ASSERT_TRUE(system.RegisterFusionGroup(group_a).ok());
  FusionGroupConfig group_b;
  group_b.group_id = kGroupB;
  group_b.model = ScalarModel(0.06);
  group_b.member_ids = kMembersB;
  group_b.delta = 3.0;
  ASSERT_TRUE(system.RegisterFusionGroup(group_b).ok());

  FusedQuery tight;
  tight.id = 50;
  tight.group_id = kGroupA;
  tight.precision = 0.8;
  ASSERT_TRUE(system.SubmitFusedQuery(tight).ok());
  Subscription fused_sub;
  fused_sub.id = 1;
  fused_sub.kind = SubscriptionKind::kFused;
  fused_sub.group_id = kGroupB;
  ASSERT_TRUE(system.Subscribe(fused_sub).ok());
}

void ExpectFusionStatsEq(const FusionStats& got, const FusionStats& want,
                         const std::string& label) {
  EXPECT_EQ(got.groups, want.groups) << label;
  EXPECT_EQ(got.members, want.members) << label;
  EXPECT_EQ(got.updates_applied, want.updates_applied) << label;
  EXPECT_EQ(got.suppressed, want.suppressed) << label;
  EXPECT_EQ(got.transmissions, want.transmissions) << label;
  EXPECT_EQ(got.broadcasts, want.broadcasts) << label;
  EXPECT_EQ(got.broadcast_bytes, want.broadcast_bytes) << label;
  EXPECT_EQ(got.faults.resyncs_sent, want.faults.resyncs_sent) << label;
  EXPECT_EQ(got.faults.resyncs_applied, want.faults.resyncs_applied)
      << label;
  EXPECT_EQ(got.faults.heartbeats_sent, want.faults.heartbeats_sent)
      << label;
  EXPECT_EQ(got.faults.rejected_stale, want.faults.rejected_stale) << label;
  EXPECT_EQ(got.faults.rejected_corrupt, want.faults.rejected_corrupt)
      << label;
  EXPECT_EQ(got.faults.sequence_gaps, want.faults.sequence_gaps) << label;
  EXPECT_EQ(got.faults.degraded_ticks, want.faults.degraded_ticks) << label;
}

/// The uninterrupted single-shard run the multi-shard runs are measured
/// against: per-tick fused answers, degraded flags, and final
/// accounting.
struct FusionReference {
  std::vector<double> fused_a;          // [tick]
  std::vector<double> fused_b;          // [tick]
  std::vector<bool> degraded_a;         // [tick]
  std::vector<bool> degraded_b;         // [tick]
  FusionStats stats;
  std::vector<NotificationBatch> notifications;
};

const FusionReference& GetFusionReference() {
  static const FusionReference* const reference = [] {
    auto* ref = new FusionReference();
    ShardedStreamEngineOptions options;
    options.channel = ChaosChannel();
    options.protocol = ChaosProtocol();
    ShardedStreamEngine single(options);
    InstallFusionWorkload(single);
    for (int64_t t = 0; t < kChaosTicks; ++t) {
      EXPECT_TRUE(single.ProcessTick(FleetReadings(t)).ok())
          << "tick " << t;
      ref->fused_a.push_back(single.AnswerFused(kGroupA).value()[0]);
      ref->fused_b.push_back(single.AnswerFused(kGroupB).value()[0]);
      ref->degraded_a.push_back(single.fused_degraded(kGroupA).value());
      ref->degraded_b.push_back(single.fused_degraded(kGroupB).value());
    }
    ref->stats = single.fusion_stats();
    ref->notifications = single.DrainNotifications();
    EXPECT_TRUE(single.VerifyFusedConsistency().ok());
    // The chaos actually bit: resyncs flowed and degraded spans
    // happened, so the invariance below is tested under real damage.
    EXPECT_GT(ref->stats.faults.resyncs_applied, 0);
    EXPECT_GT(ref->stats.faults.degraded_ticks, 0);
    EXPECT_GT(ref->stats.suppressed, 0);
    return ref;
  }();
  return *reference;
}

TEST(FusionChaosTest, FusedAnswersAreShardCountInvariant) {
  const FusionReference& ref = GetFusionReference();
  for (int shards : {2, 4, 8}) {
    const std::string label = "shards=" + std::to_string(shards);
    ShardedStreamEngineOptions options;
    options.num_shards = shards;
    options.channel = ChaosChannel();
    options.protocol = ChaosProtocol();
    ShardedStreamEngine engine(options);
    InstallFusionWorkload(engine);
    ASSERT_EQ(engine.num_fusion_groups(), 2u) << label;
    ASSERT_EQ(engine.num_fusion_members(),
              kMembersA.size() + kMembersB.size())
        << label;
    // Groups are pinned to the shard their id hashes to.
    EXPECT_EQ(engine.fusion_group_shard(kGroupA), kGroupA % shards) << label;
    EXPECT_EQ(engine.fusion_group_shard(kGroupB), kGroupB % shards) << label;

    for (int64_t t = 0; t < kChaosTicks; ++t) {
      ASSERT_TRUE(engine.ProcessTick(FleetReadings(t)).ok())
          << label << " tick " << t;
      ASSERT_EQ(engine.AnswerFused(kGroupA).value()[0],
                ref.fused_a[static_cast<size_t>(t)])
          << label << " tick " << t;
      ASSERT_EQ(engine.AnswerFused(kGroupB).value()[0],
                ref.fused_b[static_cast<size_t>(t)])
          << label << " tick " << t;
      ASSERT_EQ(engine.fused_degraded(kGroupA).value(),
                ref.degraded_a[static_cast<size_t>(t)])
          << label << " tick " << t;
      ASSERT_EQ(engine.fused_degraded(kGroupB).value(),
                ref.degraded_b[static_cast<size_t>(t)])
          << label << " tick " << t;
      if (t % 60 == 0 || t == kChaosTicks - 1) {
        ASSERT_TRUE(engine.VerifyFusedConsistency().ok())
            << label << " tick " << t;
      }
    }
    ExpectFusionStatsEq(engine.fusion_stats(), ref.stats, label);
    EXPECT_TRUE(engine.DrainNotifications() == ref.notifications)
        << label << ": fused notification stream differs";
    EXPECT_TRUE(engine.VerifyMirrorConsistency().ok()) << label;
  }
}

TEST(FusionChaosTest, SingleMemberGroupDegeneratesToPlainSourcePath) {
  // One sensor, one state: the fused trigger "does my reading move the
  // fused posterior by more than delta" collapses to the per-source rule
  // "does my reading deviate from my mirror by more than delta", and the
  // group must answer bit-exactly what a plain dual-filter link answers
  // under the identical per-source fault stream. ACK loss is excluded:
  // ambiguous-ACK bookkeeping differs across the two paths by design
  // (docs/fusion.md §5).
  constexpr int kSharedId = 10;
  constexpr int64_t kTicks = 260;
  ChannelOptions channel = ChaosChannel();
  channel.fault.ack_loss_probability = 0.0;

  std::vector<Vector> walk;
  Rng rng(33);
  double value = 0.0;
  for (int64_t t = 0; t < kTicks; ++t) {
    value += rng.Gaussian(0.0, 0.6);
    walk.push_back(Vector{value});
  }

  ShardedStreamEngineOptions plain_options;
  plain_options.channel = channel;
  plain_options.protocol = ChaosProtocol();
  ShardedStreamEngine plain(plain_options);
  ASSERT_TRUE(plain.RegisterSource(kSharedId, ScalarModel()).ok());
  ContinuousQuery query;
  query.id = 1;
  query.source_id = kSharedId;
  query.precision = 1.0;
  ASSERT_TRUE(plain.SubmitQuery(query).ok());

  ShardedStreamEngineOptions fused_options;
  fused_options.channel = channel;
  fused_options.protocol = ChaosProtocol();
  ShardedStreamEngine fused(fused_options);
  FusionGroupConfig solo;
  solo.group_id = 1;
  solo.model = ScalarModel();
  solo.member_ids = {kSharedId};
  solo.delta = 1.0;
  ASSERT_TRUE(fused.RegisterFusionGroup(solo).ok());

  // The one deliberate semantic difference: the plain path marks the tick
  // a resync lands as degraded (the answer that tick is the imported
  // mirror snapshot, not a delta-tested posterior — server_node.cc), while
  // the fused path is staleness-only (a resync is answered with a re-lock
  // broadcast and the fused answer stays the posterior itself —
  // docs/fusion.md §5). On exactly those ticks the flags may diverge as
  // plain=true / fused=false; everywhere else they must match bit-exactly.
  int64_t coast_only_ticks = 0;
  for (int64_t t = 0; t < kTicks; ++t) {
    const int64_t resyncs_before = plain.fault_stats().resyncs_applied;
    std::map<int, Vector> reading{{kSharedId, walk[static_cast<size_t>(t)]}};
    ASSERT_TRUE(plain.ProcessTick(reading).ok()) << "tick " << t;
    ASSERT_TRUE(fused.ProcessTick(reading).ok()) << "tick " << t;
    ASSERT_EQ(fused.AnswerFused(1).value()[0],
              plain.Answer(kSharedId).value()[0])
        << "tick " << t;
    const bool plain_degraded = plain.answer_degraded(kSharedId).value();
    const bool fused_degraded = fused.fused_degraded(1).value();
    if (plain.fault_stats().resyncs_applied > resyncs_before) {
      EXPECT_TRUE(plain_degraded) << "tick " << t;
      EXPECT_FALSE(fused_degraded) << "tick " << t;
      // Degraded service is accounted at the next BeginTick, so the final
      // tick's flag never reaches the counters on either side.
      if (t < kTicks - 1) ++coast_only_ticks;
    } else {
      ASSERT_EQ(fused_degraded, plain_degraded) << "tick " << t;
    }
  }
  // Identical update schedule, not just identical answers: same message
  // count on the wire (fused frames cost 12 bytes more each for the
  // group routing fields, so bytes are deliberately NOT compared), same
  // fault bookkeeping.
  EXPECT_EQ(fused.fusion_stats().transmissions,
            plain.updates_sent(kSharedId).value());
  EXPECT_EQ(fused.uplink_traffic().messages,
            plain.uplink_traffic().messages);
  EXPECT_GT(fused.uplink_traffic().bytes, plain.uplink_traffic().bytes);
  EXPECT_EQ(fused.fusion_stats().faults.resyncs_applied,
            plain.fault_stats().resyncs_applied);
  EXPECT_EQ(fused.fusion_stats().faults.heartbeats_sent,
            plain.fault_stats().heartbeats_sent);
  EXPECT_EQ(fused.fusion_stats().faults.degraded_ticks + coast_only_ticks,
            plain.fault_stats().degraded_ticks);
  // The chaos was live for both runs.
  EXPECT_GT(fused.fusion_stats().faults.resyncs_applied, 0);
  EXPECT_TRUE(fused.VerifyFusedConsistency().ok());
  EXPECT_TRUE(plain.VerifyMirrorConsistency().ok());
}

TEST(FusionChaosTest, MembershipChurnSurvivesChaos) {
  // Members join and leave mid-chaos (one of each, between ticks). The
  // group keeps serving throughout, the churn is shard-count invariant,
  // and after the faults drain the consistency contract holds.
  constexpr int64_t kTicks = 300;
  constexpr int64_t kJoinTick = 150;
  constexpr int64_t kLeaveTick = 200;
  constexpr int kJoiner = 103;
  constexpr int kLeaver = 101;

  auto readings_at = [&](int64_t t) {
    std::map<int, Vector> readings;
    for (int id = 1; id <= kNumPlainSources; ++id) {
      readings[id] = PlainReading(id, t);
    }
    std::vector<int> members = kMembersA;
    if (t >= kJoinTick) members.push_back(kJoiner);
    if (t >= kLeaveTick) std::erase(members, kLeaver);
    for (int id : members) readings[id] = MemberReading(kGroupA, id, t);
    return readings;
  };

  auto run = [&](auto& system) {
    std::vector<double> answers;
    for (int64_t t = 0; t < kTicks; ++t) {
      if (t == kJoinTick) {
        EXPECT_TRUE(system.AddFusionMember(kGroupA, kJoiner).ok());
      }
      if (t == kLeaveTick) {
        EXPECT_TRUE(system.RemoveFusionMember(kGroupA, kLeaver).ok());
      }
      EXPECT_TRUE(system.ProcessTick(readings_at(t)).ok()) << "tick " << t;
      answers.push_back(system.AnswerFused(kGroupA).value()[0]);
    }
    // The group outlived the churn, consistent and healthy.
    EXPECT_TRUE(system.AnswerFused(kGroupA).ok());
    EXPECT_TRUE(system.VerifyFusedConsistency().ok());
    EXPECT_FALSE(system.fused_degraded(kGroupA).value());
    return answers;
  };

  ShardedStreamEngineOptions single_options;
  single_options.channel = ChaosChannel();
  single_options.protocol = ChaosProtocol();
  ShardedStreamEngine single(single_options);
  for (int id = 1; id <= kNumPlainSources; ++id) {
    ASSERT_TRUE(single.RegisterSource(id, ScalarModel()).ok());
  }
  FusionGroupConfig group;
  group.group_id = kGroupA;
  group.model = ScalarModel(0.04);
  group.member_ids = kMembersA;
  group.delta = 2.0;
  ASSERT_TRUE(single.RegisterFusionGroup(group).ok());
  const std::vector<double> reference = run(single);
  EXPECT_EQ(single.fusion_for_group(kGroupA)->group_members(kGroupA).value(),
            (std::vector<int>{100, 102, kJoiner}));

  for (int shards : {2, 4}) {
    ShardedStreamEngineOptions options;
    options.num_shards = shards;
    options.channel = ChaosChannel();
    options.protocol = ChaosProtocol();
    ShardedStreamEngine engine(options);
    for (int id = 1; id <= kNumPlainSources; ++id) {
      ASSERT_TRUE(engine.RegisterSource(id, ScalarModel()).ok());
    }
    ASSERT_TRUE(engine.RegisterFusionGroup(group).ok());
    const std::vector<double> sharded = run(engine);
    for (size_t t = 0; t < reference.size(); ++t) {
      ASSERT_EQ(sharded[t], reference[t])
          << "shards=" << shards << " tick " << t;
    }
    EXPECT_EQ(engine.num_fusion_members(), 3u) << shards;
  }
}

}  // namespace
}  // namespace dkf
