// Unit tests for the multi-sensor fusion subsystem (src/fusion/,
// docs/fusion.md): the information-form kernels' algebraic-equivalence
// contract, group registration validation (including the engine-wide
// member/source id disjointness), the cross-source suppression win on a
// clean channel, fused-query trigger reconfiguration, fused continuous
// subscriptions, and the degrade/heal cycle across a scheduled outage.

#include <cmath>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "filter/fusion_kernels.h"
#include "fusion/fusion_engine.h"
#include "models/model_factory.h"
#include "runtime/sharded_engine.h"
#include "serve/subscription.h"

namespace dkf {
namespace {

StateModel ScalarModel(double process_variance = 0.05,
                       double measurement_variance = 0.05) {
  ModelNoise noise;
  noise.process_variance = process_variance;
  noise.measurement_variance = measurement_variance;
  return MakeLinearModel(1, 1.0, noise).value();
}

FusionGroupConfig GroupOf(int group_id, std::vector<int> members,
                          double delta = 1.0) {
  FusionGroupConfig config;
  config.group_id = group_id;
  config.model = ScalarModel();
  config.member_ids = std::move(members);
  config.delta = delta;
  return config;
}

// ---- information-form kernels ----------------------------------------

TEST(FusionKernelsTest, MomentInformationRoundTrip) {
  const Vector x{1.5, -0.25};
  Matrix p = Matrix::Identity(2);
  p(0, 0) = 2.0;
  p(0, 1) = 0.5;
  p(1, 0) = 0.5;
  p(1, 1) = 1.25;
  auto info_or = ToInformation(x, p);
  ASSERT_TRUE(info_or.ok()) << info_or.status().message();
  auto back_or = FromInformation(info_or.value());
  ASSERT_TRUE(back_or.ok()) << back_or.status().message();
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_NEAR(back_or.value().state[i], x[i], 1e-12);
    for (size_t j = 0; j < 2; ++j) {
      EXPECT_NEAR(back_or.value().covariance(i, j), p(i, j), 1e-12);
    }
  }
}

TEST(FusionKernelsTest, SingularCovarianceRejected) {
  const Vector x{1.0};
  Matrix p(1, 1);
  p(0, 0) = 0.0;
  EXPECT_FALSE(ToInformation(x, p).ok());
  InformationState flat;
  flat.info_vector = Vector{0.0};
  flat.info_matrix = p;  // Y = 0: totally uninformative
  EXPECT_FALSE(FromInformation(flat).ok());
}

TEST(FusionKernelsTest, AddObservationMatchesKalmanCorrection) {
  // Scalar prior x=0, P=1; observation z=1 with H=1, R=0.5.
  // Information form: Y = 1 + 2 = 3, y = 0 + 2 = 2 -> x = 2/3, P = 1/3.
  // Covariance-form gain: K = 1/(1+0.5) = 2/3 -> identical posterior.
  auto info_or = ToInformation(Vector{0.0}, Matrix::Identity(1));
  ASSERT_TRUE(info_or.ok());
  InformationState info = info_or.value();
  Matrix h = Matrix::Identity(1);
  Matrix r(1, 1);
  r(0, 0) = 0.5;
  ASSERT_TRUE(AddObservation(&info, h, r, Vector{1.0}).ok());
  auto fused_or = FromInformation(info);
  ASSERT_TRUE(fused_or.ok());
  EXPECT_NEAR(fused_or.value().state[0], 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(fused_or.value().covariance(0, 0), 1.0 / 3.0, 1e-12);
}

TEST(FusionKernelsTest, AdditiveFusionIsOrderFree) {
  // Adding k observations in either order lands on the same information
  // state — the additivity the sequential covariance-form execution of
  // the fused posterior relies on.
  Matrix h = Matrix::Identity(1);
  Matrix r(1, 1);
  r(0, 0) = 0.25;
  const std::vector<double> readings = {0.8, 1.2, 0.9};

  auto forward_or = ToInformation(Vector{0.0}, Matrix::Identity(1));
  auto backward_or = ToInformation(Vector{0.0}, Matrix::Identity(1));
  ASSERT_TRUE(forward_or.ok() && backward_or.ok());
  InformationState forward = forward_or.value();
  InformationState backward = backward_or.value();
  for (size_t i = 0; i < readings.size(); ++i) {
    ASSERT_TRUE(AddObservation(&forward, h, r, Vector{readings[i]}).ok());
    ASSERT_TRUE(
        AddObservation(&backward, h, r,
                       Vector{readings[readings.size() - 1 - i]})
            .ok());
  }
  EXPECT_NEAR(forward.info_vector[0], backward.info_vector[0], 1e-12);
  EXPECT_NEAR(forward.info_matrix(0, 0), backward.info_matrix(0, 0), 1e-12);
}

TEST(FusionKernelsTest, CovarianceIntersection) {
  MomentState a;
  a.state = Vector{1.0};
  a.covariance = Matrix::Identity(1);
  MomentState b;
  b.state = Vector{3.0};
  b.covariance = Matrix::Identity(1);
  b.covariance(0, 0) = 4.0;

  // Fusing an estimate with itself at any omega returns it unchanged.
  auto self_or = CovarianceIntersect(a, a, 0.3);
  ASSERT_TRUE(self_or.ok());
  EXPECT_NEAR(self_or.value().state[0], 1.0, 1e-12);
  EXPECT_NEAR(self_or.value().covariance(0, 0), 1.0, 1e-12);

  // The intersection lies between the inputs and stays consistent
  // (covariance no smaller than the omega-weighted harmonic bound).
  auto mix_or = CovarianceIntersect(a, b, 0.5);
  ASSERT_TRUE(mix_or.ok());
  EXPECT_GT(mix_or.value().state[0], 1.0);
  EXPECT_LT(mix_or.value().state[0], 3.0);
  EXPECT_GT(mix_or.value().covariance(0, 0), 0.0);

  // omega is exclusive on both ends.
  EXPECT_FALSE(CovarianceIntersect(a, b, 0.0).ok());
  EXPECT_FALSE(CovarianceIntersect(a, b, 1.0).ok());
}

// ---- registration validation -----------------------------------------

TEST(FusionEngineTest, RegistrationValidation) {
  ShardedStreamEngine engine{ShardedStreamEngineOptions{}};

  EXPECT_FALSE(
      engine.RegisterFusionGroup(GroupOf(1, /*members=*/{})).ok());
  EXPECT_FALSE(engine.RegisterFusionGroup(GroupOf(1, {10, 10})).ok());
  EXPECT_FALSE(engine.RegisterFusionGroup(GroupOf(-1, {10})).ok());
  EXPECT_FALSE(
      engine.RegisterFusionGroup(GroupOf(kMaxFusionGroupId + 1, {10})).ok());
  FusionGroupConfig bad_delta = GroupOf(1, {10});
  bad_delta.delta = -1.0;
  EXPECT_FALSE(engine.RegisterFusionGroup(bad_delta).ok());
  bad_delta.delta = std::nan("");
  EXPECT_FALSE(engine.RegisterFusionGroup(bad_delta).ok());

  ASSERT_TRUE(engine.RegisterFusionGroup(GroupOf(1, {10, 11})).ok());
  // Duplicate group id; member owned by another group.
  EXPECT_FALSE(engine.RegisterFusionGroup(GroupOf(1, {20})).ok());
  EXPECT_FALSE(engine.RegisterFusionGroup(GroupOf(2, {11, 12})).ok());
  EXPECT_TRUE(engine.fusion_for_group(1) != nullptr);
  EXPECT_EQ(engine.num_fusion_members(), 2u);

  // A fused query cannot smuggle a NaN trigger past the registry, nor a
  // host past the group's own check.
  FusedQuery nan_query;
  nan_query.id = 1;
  nan_query.group_id = 1;
  nan_query.precision = std::nan("");
  EXPECT_EQ(engine.SubmitFusedQuery(nan_query).code(),
            StatusCode::kInvalidArgument);
  FusionEngine fusion(ProtocolOptions{}, FaultModel{});
  ASSERT_TRUE(fusion.RegisterGroup(GroupOf(1, {10})).ok());
  EXPECT_FALSE(fusion.set_group_delta(1, std::nan("")).ok());
  EXPECT_FALSE(fusion.set_group_delta(1, 0.0).ok());
  EXPECT_EQ(fusion.group_delta(1).value(), 1.0);
}

TEST(FusionEngineTest, MemberAndSourceIdNamespacesAreDisjoint) {
  ShardedStreamEngine engine{ShardedStreamEngineOptions{}};
  ASSERT_TRUE(engine.RegisterSource(1, ScalarModel()).ok());
  ASSERT_TRUE(engine.RegisterFusionGroup(GroupOf(5, {10, 11})).ok());

  // A member id that is already a plain source, both at registration and
  // at later admission.
  EXPECT_EQ(engine.RegisterFusionGroup(GroupOf(6, {1})).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(engine.AddFusionMember(5, 1).code(),
            StatusCode::kAlreadyExists);
  // A plain source id that is already a fusion member.
  EXPECT_EQ(engine.RegisterSource(10, ScalarModel()).code(),
            StatusCode::kAlreadyExists);
}

TEST(FusionEngineTest, MembershipChurnRules) {
  ShardedStreamEngine engine{ShardedStreamEngineOptions{}};
  ASSERT_TRUE(engine.RegisterFusionGroup(GroupOf(3, {10, 11})).ok());

  EXPECT_FALSE(engine.AddFusionMember(3, 10).ok());   // already a member
  EXPECT_FALSE(engine.AddFusionMember(99, 12).ok());  // unknown group
  ASSERT_TRUE(engine.AddFusionMember(3, 12).ok());
  EXPECT_EQ(engine.fusion_for_group(3)->group_members(3).value(),
            (std::vector<int>{10, 11, 12}));

  ASSERT_TRUE(engine.RemoveFusionMember(3, 11).ok());
  EXPECT_FALSE(engine.RemoveFusionMember(3, 11).ok());  // already gone
  ASSERT_TRUE(engine.RemoveFusionMember(3, 12).ok());
  // The last member cannot be removed — a group always has an observer.
  EXPECT_FALSE(engine.RemoveFusionMember(3, 10).ok());
  EXPECT_EQ(engine.fusion_for_group(3)->member_group(10), 3);
  EXPECT_EQ(engine.fusion_for_group(3)->member_group(11), -1);
}

// ---- protocol behavior on a clean channel ----------------------------

std::map<int, Vector> RedundantReadings(const std::vector<int>& members,
                                        double value) {
  std::map<int, Vector> readings;
  for (int id : members) readings[id] = Vector{value};
  return readings;
}

TEST(FusionEngineTest, CrossSourceSuppressionOnCleanChannel) {
  // Four redundant sensors on a clean channel: after the first mover's
  // correction is absorbed and re-broadcast intra-tick, the other three
  // test the same reading against the already-updated fused mirror and
  // suppress. Per-tick uplink cost is O(1), not O(members).
  const std::vector<int> members = {10, 11, 12, 13};
  ShardedStreamEngine engine{ShardedStreamEngineOptions{}};
  ASSERT_TRUE(
      engine.RegisterFusionGroup(GroupOf(1, members, /*delta=*/0.5)).ok());

  const int64_t kTicks = 60;
  for (int64_t t = 0; t < kTicks; ++t) {
    // A drifting truth all four sensors see identically.
    ASSERT_TRUE(
        engine.ProcessTick(RedundantReadings(members, 0.05 * t)).ok());
  }

  const FusionStats stats = engine.fusion_stats();
  EXPECT_EQ(stats.groups, 1);
  EXPECT_EQ(stats.members, 4);
  // Every member step either transmitted or suppressed.
  EXPECT_EQ(stats.transmissions + stats.suppressed,
            static_cast<int64_t>(members.size()) * kTicks);
  // The cross-source win: at most ~one transmission per tick, the rest
  // suppressed against the diffused posterior.
  EXPECT_LE(stats.transmissions, kTicks + 4);
  EXPECT_GE(stats.suppressed, 3 * kTicks - 4);
  EXPECT_EQ(stats.updates_applied, stats.transmissions);
  // Every applied correction re-locked the whole group (one broadcast
  // each), and its downlink bytes were charged.
  EXPECT_EQ(stats.broadcasts, stats.updates_applied);
  EXPECT_GT(stats.broadcast_bytes, 0);

  ASSERT_TRUE(engine.VerifyFusedConsistency().ok());
  EXPECT_FALSE(engine.fused_degraded(1).value());
  // The fused answer tracks the drifting truth within the trigger.
  EXPECT_NEAR(engine.AnswerFused(1).value()[0], 0.05 * (kTicks - 1), 0.5);
}

TEST(FusionEngineTest, PosteriorInformationMatchesMomentAnswer) {
  ShardedStreamEngine engine{ShardedStreamEngineOptions{}};
  ASSERT_TRUE(engine.RegisterFusionGroup(GroupOf(2, {10, 11}, 0.25)).ok());
  for (int64_t t = 0; t < 20; ++t) {
    ASSERT_TRUE(
        engine.ProcessTick(RedundantReadings({10, 11}, 0.2 * t)).ok());
  }
  ASSERT_FALSE(engine.fused_degraded(2).value());

  auto info_or = engine.fusion_for_group(2)->PosteriorInformation(2);
  ASSERT_TRUE(info_or.ok()) << info_or.status().message();
  auto moments_or = FromInformation(info_or.value());
  ASSERT_TRUE(moments_or.ok());
  auto answer_or = engine.AnswerFusedWithConfidence(2);
  ASSERT_TRUE(answer_or.ok());
  // Scalar model with H = I: the information-form coordinates invert to
  // exactly the served moments (no degraded inflation on a live group).
  EXPECT_NEAR(moments_or.value().state[0], answer_or.value().value[0],
              1e-9);
  EXPECT_NEAR(moments_or.value().covariance(0, 0),
              answer_or.value().covariance(0, 0), 1e-9);
  EXPECT_FALSE(answer_or.value().degraded);
}

TEST(FusionEngineTest, UnknownGroupAndMemberLookups) {
  ShardedStreamEngine engine{ShardedStreamEngineOptions{}};
  ASSERT_TRUE(engine.RegisterFusionGroup(GroupOf(1, {10})).ok());

  EXPECT_EQ(engine.AnswerFused(99).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.AnswerFusedWithConfidence(99).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(engine.fused_degraded(99).status().code(),
            StatusCode::kNotFound);
  // A fusion member is not a queryable per-source stream.
  EXPECT_FALSE(engine.Answer(10).ok());
}

TEST(FusionEngineTest, UnservableFramesAreErrorsAfterAdmission) {
  // Frames the fused ingress cannot serve are engine errors, not
  // protocol events: plain traffic routed here, a model switch, and a
  // resync stamped with a future tick. The last two pass the shared
  // ingress rule first (dsms/protocol.h), as on ServerNode, so they
  // advance the member's sequence cursor.
  FusionEngine fusion{ProtocolOptions(), FaultModel()};
  ASSERT_TRUE(fusion.RegisterGroup(GroupOf(1, {10})).ok());
  ASSERT_TRUE(fusion.BeginTick(0).ok());
  Message message;
  message.type = MessageType::kModelSwitch;
  message.source_id = 10;
  message.sequence = 1;
  EXPECT_EQ(fusion.OnMessage(message).code(), StatusCode::kInvalidArgument);
  message.group_id = 1;
  EXPECT_EQ(fusion.OnMessage(message).code(), StatusCode::kUnimplemented);
  message.type = MessageType::kResync;
  message.sequence = 2;
  message.tick = 5;
  EXPECT_EQ(fusion.OnMessage(message).code(), StatusCode::kInternal);
  message.tick = 0;
  EXPECT_TRUE(fusion.OnMessage(message).ok());
  EXPECT_EQ(fusion.stats().faults.rejected_stale, 1);
  EXPECT_EQ(fusion.stats().faults.resyncs_applied, 0);
  // A frame for a group that is gone has nowhere to be counted.
  message.group_id = 2;
  message.sequence = 3;
  EXPECT_TRUE(fusion.OnMessage(message).ok());
  EXPECT_EQ(fusion.stats().faults.rejected_stale, 1);
}

// ---- fused queries drive the group trigger ---------------------------

TEST(FusionEngineTest, FusedQueriesTightenAndRelaxGroupDelta) {
  ShardedStreamEngine engine{ShardedStreamEngineOptions{}};
  ASSERT_TRUE(
      engine.RegisterFusionGroup(GroupOf(1, {10, 11}, /*delta=*/4.0)).ok());
  EXPECT_EQ(engine.fusion_for_group(1)->group_delta(1).value(), 4.0);

  FusedQuery coarse;
  coarse.id = 1;
  coarse.group_id = 1;
  coarse.precision = 2.0;
  ASSERT_TRUE(engine.SubmitFusedQuery(coarse).ok());
  EXPECT_EQ(engine.fusion_for_group(1)->group_delta(1).value(), 2.0);

  FusedQuery tight;
  tight.id = 2;
  tight.group_id = 1;
  tight.precision = 0.5;
  ASSERT_TRUE(engine.SubmitFusedQuery(tight).ok());
  EXPECT_EQ(engine.fusion_for_group(1)->group_delta(1).value(), 0.5);

  // Removing the tight query relaxes to the survivor; removing the last
  // query reverts to the registration-time trigger.
  ASSERT_TRUE(engine.RemoveFusedQuery(2).ok());
  EXPECT_EQ(engine.fusion_for_group(1)->group_delta(1).value(), 2.0);
  ASSERT_TRUE(engine.RemoveFusedQuery(1).ok());
  EXPECT_EQ(engine.fusion_for_group(1)->group_delta(1).value(), 4.0);
  EXPECT_EQ(engine.fusion_for_group(1)->group_base_delta(1).value(), 4.0);

  // Validation: unknown group, reserved id range, duplicate id, unknown
  // removal.
  FusedQuery orphan;
  orphan.id = 3;
  orphan.group_id = 99;
  orphan.precision = 1.0;
  EXPECT_EQ(engine.SubmitFusedQuery(orphan).code(),
            StatusCode::kNotFound);
  FusedQuery reserved;
  reserved.id = kReservedQueryIdBase;
  reserved.group_id = 1;
  reserved.precision = 1.0;
  EXPECT_EQ(engine.SubmitFusedQuery(reserved).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(engine.SubmitFusedQuery(coarse).ok());
  EXPECT_FALSE(engine.SubmitFusedQuery(coarse).ok());
  EXPECT_FALSE(engine.RemoveFusedQuery(77).ok());
}

TEST(FusionEngineTest, TighterTriggerBuysMoreTransmissions) {
  // The event trigger is live: the same workload under a 10x tighter
  // delta transmits strictly more (precision costs uplink, docs/fusion.md
  // §2 — the fused analogue of the paper's delta/accuracy dial).
  auto run = [](double delta) {
    ShardedStreamEngine engine{ShardedStreamEngineOptions{}};
    EXPECT_TRUE(
        engine.RegisterFusionGroup(GroupOf(1, {10, 11}, delta)).ok());
    Rng rng(17);
    double truth = 0.0;
    for (int64_t t = 0; t < 80; ++t) {
      truth += rng.Gaussian(0.0, 0.4);
      EXPECT_TRUE(
          engine.ProcessTick(RedundantReadings({10, 11}, truth)).ok());
    }
    return engine.fusion_stats().transmissions;
  };
  EXPECT_GT(run(0.2), run(2.0));
}

// ---- fused continuous subscriptions ----------------------------------

TEST(FusionEngineTest, FusedSubscriptionDeliversOnGroupMovement) {
  ShardedStreamEngine engine{ShardedStreamEngineOptions{}};
  ASSERT_TRUE(engine.RegisterFusionGroup(GroupOf(4, {10, 11}, 0.5)).ok());

  Subscription fused;
  fused.id = 1;
  fused.kind = SubscriptionKind::kFused;
  fused.group_id = 4;
  ASSERT_TRUE(engine.Subscribe(fused).ok());

  // A subscription against an unregistered group is refused at attach.
  Subscription orphan;
  orphan.id = 2;
  orphan.kind = SubscriptionKind::kFused;
  orphan.group_id = 99;
  EXPECT_FALSE(engine.Subscribe(orphan).ok());

  for (int64_t t = 0; t < 30; ++t) {
    ASSERT_TRUE(
        engine.ProcessTick(RedundantReadings({10, 11}, 0.3 * t)).ok());
  }

  const std::vector<NotificationBatch> batches =
      engine.DrainNotifications();
  ASSERT_FALSE(batches.empty());
  int64_t updates = 0;
  bool saw_initial = false;
  for (const NotificationBatch& batch : batches) {
    for (const Notification& notification : batch.notifications) {
      ASSERT_EQ(notification.subscription_id, 1);
      ASSERT_EQ(notification.source_id, FusedSourceKey(4));
      ASSERT_TRUE(IsFusedSourceKey(notification.source_id));
      if (notification.kind == NotificationKind::kInitial) {
        saw_initial = true;
      } else {
        ASSERT_EQ(notification.kind, NotificationKind::kFusedUpdate);
        ++updates;
      }
    }
  }
  EXPECT_TRUE(saw_initial);
  // The posterior moved on (nearly) every correction of the ramp.
  EXPECT_GT(updates, 10);
  ASSERT_TRUE(engine.Unsubscribe(1).ok());
  EXPECT_EQ(engine.num_subscriptions(), 0u);
}

// ---- degrade / heal --------------------------------------------------

TEST(FusionEngineTest, OutageDegradesFusedAnswerAndHealsOnBroadcast) {
  // A scheduled radio blackout silences the whole group (uplink and the
  // re-lock downlink). Past the staleness budget the fused answer is
  // served degraded with inflated covariance; the first applied
  // correction after the window re-locks every mirror and heals it.
  ShardedStreamEngineOptions options;
  options.channel.fault.outages.push_back(
      OutageWindow{/*start=*/20, /*end=*/40});
  options.channel.fault.active_until = 200;
  options.protocol.heartbeat_interval = 3;
  options.protocol.staleness_budget = 5;
  ShardedStreamEngine engine(options);
  ASSERT_TRUE(engine.RegisterFusionGroup(GroupOf(1, {10, 11}, 0.5)).ok());

  double healthy_uncertainty = 0.0;
  bool degraded_during_outage = false;
  double degraded_uncertainty = 0.0;
  for (int64_t t = 0; t < 80; ++t) {
    ASSERT_TRUE(
        engine.ProcessTick(RedundantReadings({10, 11}, 0.2 * t)).ok());
    const bool degraded = engine.fused_degraded(1).value();
    if (t == 18) {
      ASSERT_FALSE(degraded) << "degraded before the outage";
      healthy_uncertainty =
          engine.AnswerFusedWithConfidence(1).value().covariance(0, 0);
    }
    if (t >= 20 && t < 40 && degraded) {
      degraded_during_outage = true;
      degraded_uncertainty =
          engine.AnswerFusedWithConfidence(1).value().covariance(0, 0);
      EXPECT_TRUE(engine.AnswerFusedWithConfidence(1).value().degraded);
    }
  }
  EXPECT_TRUE(degraded_during_outage);
  // Degraded inflation is multiplicative in the overdue span.
  EXPECT_GT(degraded_uncertainty, healthy_uncertainty);
  // Healed well after the window: corrections flowed, broadcasts
  // re-locked the mirrors, and the consistency contract holds again.
  EXPECT_FALSE(engine.fused_degraded(1).value());
  EXPECT_TRUE(engine.VerifyFusedConsistency().ok());
  EXPECT_GT(engine.fusion_stats().faults.degraded_ticks, 0);
}

TEST(FusionEngineTest, MemberResyncRetriesBurstThenBackOff) {
  // A member runs SourceNode's retry rule (docs/protocol.md §6.2): a
  // correction lost in a scheduled outage starts an episode, the member
  // announces itself every tick for resync_burst_retries attempts, then
  // every resync_retry_backoff ticks, and the first announcement after
  // the outage draws the re-lock broadcast that heals it.
  ShardedStreamEngineOptions options;
  options.channel.fault.outages.push_back(
      OutageWindow{/*start=*/10, /*end=*/24});
  options.protocol.resync_burst_retries = 3;
  options.protocol.resync_retry_backoff = 4;
  ShardedStreamEngine engine(options);
  ASSERT_TRUE(engine.RegisterFusionGroup(GroupOf(1, {10}, 0.5)).ok());
  const FusionEngine* fusion = engine.fusion_for_group(1);
  ASSERT_NE(fusion, nullptr);

  std::vector<int64_t> resync_ticks;
  std::vector<int64_t> heal_ticks;
  int64_t resyncs_before = 0;
  bool pending = false;
  for (int64_t t = 0; t < 32; ++t) {
    std::map<int, Vector> readings{{10, Vector{t < 10 ? 0.0 : 5.0}}};
    ASSERT_TRUE(engine.ProcessTick(readings).ok()) << "tick " << t;
    const FusionStats stats = engine.fusion_stats();
    if (stats.faults.resyncs_sent > resyncs_before) resync_ticks.push_back(t);
    resyncs_before = stats.faults.resyncs_sent;
    const bool now_pending = fusion->member_pending(10).value();
    if (pending && !now_pending) heal_ticks.push_back(t);
    pending = now_pending;
  }
  EXPECT_EQ(resync_ticks, (std::vector<int64_t>{10, 11, 12, 16, 20, 24}));
  EXPECT_EQ(heal_ticks, (std::vector<int64_t>{24}));
  const ProtocolFaultStats faults = engine.fusion_stats().faults;
  EXPECT_EQ(faults.divergence_events, 1);
  EXPECT_EQ(faults.ticks_diverged, 14);
  EXPECT_EQ(faults.max_recovery_ticks, 14);
  EXPECT_TRUE(engine.VerifyFusedConsistency().ok());
}

// ---- uplink reduction on a redundant fleet ---------------------------

/// One deployment's uplink bytes and answer RMSE against the shared
/// truth, over a seeded redundant workload at trigger delta 1.5.
struct RedundantRun {
  int64_t uplink_bytes = 0;
  double rmse = 0.0;
};

/// Drives `members` sensors observing one shared random walk through
/// either N independent per-source links (answer: the client-side mean
/// of the N answers) or one N-member fusion group at the same delta.
RedundantRun RunRedundantFleet(int members, bool fused) {
  constexpr int64_t kTicks = 2000;
  constexpr double kDelta = 1.5;
  ShardedStreamEngineOptions options;
  options.channel.seed = 9;
  ShardedStreamEngine engine(options);
  const StateModel model = ScalarModel(/*process_variance=*/0.05,
                                       /*measurement_variance=*/0.2);
  if (fused) {
    FusionGroupConfig group;
    group.group_id = 1;
    group.model = model;
    for (int m = 1; m <= members; ++m) group.member_ids.push_back(m);
    group.delta = kDelta;
    EXPECT_TRUE(engine.RegisterFusionGroup(group).ok());
  } else {
    for (int m = 1; m <= members; ++m) {
      EXPECT_TRUE(engine.RegisterSource(m, model).ok());
      ContinuousQuery query;
      query.id = m;
      query.source_id = m;
      query.precision = kDelta;
      EXPECT_TRUE(engine.SubmitQuery(query).ok());
    }
  }

  Rng truth_rng(7);
  Rng sensor_rng(11);
  double truth = 20.0;
  double squared_error = 0.0;
  std::map<int, Vector> readings;
  for (int64_t t = 0; t < kTicks; ++t) {
    truth += truth_rng.Gaussian(0.0, 0.45);
    for (int m = 1; m <= members; ++m) {
      readings[m] = Vector{truth + sensor_rng.Gaussian(0.0, 0.4)};
    }
    EXPECT_TRUE(engine.ProcessTick(readings).ok()) << "tick " << t;
    double answer = 0.0;
    if (fused) {
      answer = engine.AnswerFused(1).value()[0];
    } else {
      for (int m = 1; m <= members; ++m) answer += engine.Answer(m).value()[0];
      answer /= static_cast<double>(members);
    }
    squared_error += (answer - truth) * (answer - truth);
  }
  return {engine.uplink_traffic().bytes,
          std::sqrt(squared_error / static_cast<double>(kTicks))};
}

TEST(FusionEngineTest, RedundantFleetUplinkReductionHoldsItsFloor) {
  // The seeded workload and the clean-channel protocol are
  // deterministic, so each floor is the recorded reduction (1.073x /
  // 1.840x / 2.863x) less 0.2; the largest group must also clear the
  // headline 2x. The win may not be bought with garbage answers: the
  // fused RMSE stays within 2x the per-source baseline's.
  const struct {
    int members;
    double min_reduction;
  } kRows[] = {{2, 1.073 - 0.2}, {4, 1.840 - 0.2}, {8, 2.863 - 0.2}};
  for (const auto& row : kRows) {
    const RedundantRun baseline = RunRedundantFleet(row.members, false);
    const RedundantRun fused = RunRedundantFleet(row.members, true);
    ASSERT_GT(fused.uplink_bytes, 0) << "members=" << row.members;
    const double reduction = static_cast<double>(baseline.uplink_bytes) /
                             static_cast<double>(fused.uplink_bytes);
    EXPECT_GE(reduction, row.min_reduction) << "members=" << row.members;
    EXPECT_LE(fused.rmse, 2.0 * baseline.rmse) << "members=" << row.members;
    if (row.members == 8) {
      EXPECT_GE(reduction, 2.0) << "the headline floor on the largest group";
    }
  }
}

}  // namespace
}  // namespace dkf
