// Batch-membership churn harness (src/fleet/, docs/fleet.md): sources
// are repeatedly kicked off the batched path — delta reconfigurations
// via randomized query submit/remove, resyncs and heartbeats forced by
// the chaos channel — and re-enter when they re-converge. A per-source
// twin engine is driven in lockstep through the identical schedule and
// every answer must stay bit-identical throughout. A checkpoint is
// taken mid-run, while the fleet holds a mix of resident and spilled
// sources, and the restored engine must continue bit-identically too.
// The batched engine is fed ReadingBatch ticks whose order is reshuffled
// mid-run, and one more source registers while lanes are resident, with
// an id below every lane's, so the fleet's tick order and per-lane
// bookkeeping change under live lanes.
//
// Two further scenarios target lane states the randomized schedule
// cannot reach: a periodic-correct workload that arms the steady-state
// fast path *before* absorption (so lanes tick through the armed
// frozen-gain kernel, fall back on violations, and disarm when
// coasting), and a stale-suppression run where resident lanes outlive
// the staleness budget and must serve degraded, inflated answers.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "models/model_factory.h"
#include "obs/trace.h"
#include "runtime/sharded_engine.h"

namespace dkf {
namespace {

constexpr int kNumSources = 10;
constexpr int64_t kTicks = 360;
constexpr int64_t kSnapTick = 170;
constexpr int kChurnQueryBase = 500;
constexpr int64_t kLateTick = 90;       // a source joins with lanes resident
constexpr int kLateSource = 0;          // lower than every other id
constexpr int kLateQuery = 900;
constexpr int64_t kPermuteTick = 130;   // batch order reshuffles from here

StateModel ScalarModel(double process_variance) {
  ModelNoise noise;
  noise.process_variance = process_variance;
  noise.measurement_variance = 0.05;
  return MakeLinearModel(1, 1.0, noise).value();
}

ShardedStreamEngineOptions ChurnOptions(int num_shards, bool batched) {
  ShardedStreamEngineOptions options;
  options.num_shards = num_shards;
  options.batched_fleet = batched;
  options.channel.seed = 77;
  options.channel.drop_probability = 0.05;
  FaultModel fault;
  fault.gilbert_elliott = GilbertElliottLoss{0.04, 0.3, 0.0, 1.0};
  fault.delay = DelayModel{0, 1};
  fault.ack_loss_probability = 0.04;
  fault.active_until = 300;
  options.channel.fault = fault;
  options.protocol.heartbeat_interval = 10;
  options.protocol.staleness_budget = 20;
  options.protocol.resync_burst_retries = 4;
  options.protocol.resync_retry_backoff = 6;
  return options;
}

void InstallBase(ShardedStreamEngine& engine) {
  for (int id = 1; id <= kNumSources; ++id) {
    ASSERT_TRUE(
        engine.RegisterSource(id, ScalarModel(0.02 + 0.01 * (id % 4))).ok());
    ContinuousQuery query;
    query.id = id;
    query.source_id = id;
    query.precision = 3.0 + 0.5 * (id % 3);
    ASSERT_TRUE(engine.SubmitQuery(query).ok());
  }
}

/// One randomized reconfiguration op: submit an extra query against a
/// source (tightening its effective delta) or remove it again.
struct ChurnOp {
  int64_t tick = 0;
  int source_id = 0;
  bool submit = false;
  double precision = 0.0;
};

/// The deterministic schedule both engines replay: readings plus the
/// randomized churn ops.
struct Schedule {
  std::vector<std::map<int, Vector>> readings;
  std::vector<ChurnOp> ops;  // ascending tick
};

const Schedule& GetSchedule() {
  static const Schedule* const schedule = [] {
    auto* s = new Schedule();
    Rng rng(123);
    std::vector<double> values(kNumSources + 1, 0.0);
    std::vector<bool> installed(kNumSources + 1, false);
    for (int64_t t = 0; t < kTicks; ++t) {
      std::map<int, Vector> tick;
      for (int id = 1; id <= kNumSources; ++id) {
        values[static_cast<size_t>(id)] += rng.Gaussian(0.05 * (id % 3), 0.7);
        tick[id] = Vector{values[static_cast<size_t>(id)]};
      }
      s->readings.push_back(std::move(tick));
      // ~one reconfiguration every few ticks, so sources keep cycling
      // between resident and spilled all run long.
      if (rng.Uniform() < 0.25) {
        ChurnOp op;
        op.tick = t;
        op.source_id = 1 + static_cast<int>(rng.UniformInt(0, kNumSources - 1));
        op.submit = !installed[static_cast<size_t>(op.source_id)];
        installed[static_cast<size_t>(op.source_id)] = op.submit;
        op.precision = 0.5 + 5.0 * rng.Uniform();
        s->ops.push_back(op);
      }
    }
    return s;
  }();
  return *schedule;
}

void ApplyOps(ShardedStreamEngine& engine, int64_t tick) {
  for (const ChurnOp& op : GetSchedule().ops) {
    if (op.tick != tick) continue;
    if (op.submit) {
      ContinuousQuery query;
      query.id = kChurnQueryBase + op.source_id;
      query.source_id = op.source_id;
      query.precision = op.precision;
      ASSERT_TRUE(engine.SubmitQuery(query).ok()) << "tick " << tick;
    } else {
      ASSERT_TRUE(engine.RemoveQuery(kChurnQueryBase + op.source_id).ok())
          << "tick " << tick;
    }
  }
}

/// The late source's reading: off the schedule's RNG stream, so every
/// other source's readings stay exactly as generated.
double LateValue(int64_t t) {
  return 2.0 + 0.4 * std::sin(0.05 * static_cast<double>(t));
}

std::map<int, Vector> TickReadings(int64_t t) {
  std::map<int, Vector> readings =
      GetSchedule().readings[static_cast<size_t>(t)];
  if (t >= kLateTick) readings[kLateSource] = Vector{LateValue(t)};
  return readings;
}

/// The same readings as a ReadingBatch: ascending ids before
/// kPermuteTick, then a shuffle that changes every 40 ticks, so the
/// fleet's cached batch ranks go stale under resident lanes.
ReadingBatch TickBatch(int64_t t) {
  ReadingBatch batch;
  for (const auto& [id, value] : TickReadings(t)) {
    batch.ids.push_back(id);
    batch.values.push_back(value);
  }
  if (t >= kPermuteTick) {
    Rng rng(static_cast<uint64_t>(31 + t / 40));
    for (size_t i = batch.ids.size() - 1; i > 0; --i) {
      const size_t j =
          static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(i)));
      std::swap(batch.ids[i], batch.ids[j]);
      std::swap(batch.values[i], batch.values[j]);
    }
  }
  return batch;
}

void RegisterLateSource(ShardedStreamEngine& engine) {
  ASSERT_TRUE(engine.RegisterSource(kLateSource, ScalarModel(0.03)).ok());
  ContinuousQuery query;
  query.id = kLateQuery;
  query.source_id = kLateSource;
  query.precision = 2.5;
  ASSERT_TRUE(engine.SubmitQuery(query).ok());
}

/// Drives `engine` through the churn schedule up to (excluding) `end`,
/// registering the late source on time.
void RunChurn(ShardedStreamEngine& engine, int64_t end) {
  for (int64_t t = 0; t < end; ++t) {
    if (t == kLateTick) RegisterLateSource(engine);
    ApplyOps(engine, t);
    ASSERT_TRUE(engine.ProcessTick(TickBatch(t)).ok()) << "tick " << t;
  }
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void ExpectSameAnswers(ShardedStreamEngine& batched,
                       ShardedStreamEngine& reference, int64_t tick) {
  for (int id = tick >= kLateTick ? kLateSource : 1; id <= kNumSources;
       ++id) {
    ASSERT_EQ(batched.Answer(id).value()[0], reference.Answer(id).value()[0])
        << "tick " << tick << " source " << id;
    ASSERT_EQ(batched.answer_degraded(id).value(),
              reference.answer_degraded(id).value())
        << "tick " << tick << " source " << id;
    ASSERT_EQ(batched.resync_pending(id).value(),
              reference.resync_pending(id).value())
        << "tick " << tick << " source " << id;
    ASSERT_EQ(batched.source_delta(id).value(),
              reference.source_delta(id).value())
        << "tick " << tick << " source " << id;
  }
}

TEST(FleetChurn, RandomizedSpillReentryStaysBitExact) {
  const Schedule& schedule = GetSchedule();
  ASSERT_GT(schedule.ops.size(), 20u) << "schedule churns too little";

  // Same shard count on both sides so the mid-run snapshot bytes can be
  // compared directly (the snapshot header records the shard count).
  ShardedStreamEngine reference(ChurnOptions(2, /*batched=*/false));
  ShardedStreamEngine batched(ChurnOptions(2, /*batched=*/true));
  InstallBase(reference);
  InstallBase(batched);

  size_t max_residents = 0;
  bool saw_partial_residency = false;
  std::string snapshot_bytes;
  const std::string batched_path =
      testing::TempDir() + "/fleet_churn_batched.dkfsnap";
  const std::string reference_path =
      testing::TempDir() + "/fleet_churn_reference.dkfsnap";

  for (int64_t t = 0; t < kTicks; ++t) {
    if (t == kLateTick) {
      ASSERT_GT(batched.fleet_resident_count(), 0u)
          << "the late source must join a fleet with live lanes";
      RegisterLateSource(reference);
      RegisterLateSource(batched);
    }
    ApplyOps(reference, t);
    ApplyOps(batched, t);
    ASSERT_TRUE(reference.ProcessTick(TickReadings(t)).ok()) << "tick " << t;
    ASSERT_TRUE(batched.ProcessTick(TickBatch(t)).ok()) << "tick " << t;
    ExpectSameAnswers(batched, reference, t);

    const size_t residents = batched.fleet_resident_count();
    const size_t sources = t >= kLateTick ? kNumSources + 1 : kNumSources;
    max_residents = std::max(max_residents, residents);
    if (residents > 0 && residents < sources) {
      saw_partial_residency = true;
    }
    if (t == kSnapTick) {
      // The checkpoint must be taken while the fleet holds both
      // resident and spilled sources, or the round-trip proves nothing.
      ASSERT_GT(residents, 0u);
      ASSERT_LT(residents, sources);
      ASSERT_TRUE(batched.Save(batched_path).ok());
      ASSERT_TRUE(reference.Save(reference_path).ok());
      snapshot_bytes = ReadFile(batched_path);
      EXPECT_EQ(snapshot_bytes, ReadFile(reference_path))
          << "snapshot bytes differ between engines";
    }
  }
  EXPECT_GT(max_residents, 0u) << "nothing was ever absorbed";
  ASSERT_TRUE(saw_partial_residency)
      << "the run never held a resident/spilled mix";
  // The query churn reconfigured resident sources between ticks; it
  // changes deltas only, which resident lanes take in place.
  EXPECT_EQ(batched.fleet_counters().spills[static_cast<size_t>(
                FleetSpillReason::kReconfigure)],
            0);

  // Round-trip: restore the mid-run snapshot onto a batched engine at a
  // different shard count and replay the identical tail in lockstep
  // with a per-source restore of the same snapshot.
  auto restored_batched_or =
      ShardedStreamEngine::Restore(batched_path, 4, /*batched_fleet=*/true);
  ASSERT_TRUE(restored_batched_or.ok())
      << restored_batched_or.status().message();
  auto restored_reference_or =
      ShardedStreamEngine::Restore(reference_path, 1, /*batched_fleet=*/false);
  ASSERT_TRUE(restored_reference_or.ok())
      << restored_reference_or.status().message();
  ShardedStreamEngine& rb = *restored_batched_or.value();
  ShardedStreamEngine& rr = *restored_reference_or.value();
  ASSERT_EQ(rb.ticks(), kSnapTick + 1);
  for (int64_t t = kSnapTick + 1; t < kTicks; ++t) {
    ApplyOps(rb, t);
    ApplyOps(rr, t);
    ASSERT_TRUE(rb.ProcessTick(TickBatch(t)).ok()) << "tick " << t;
    ASSERT_TRUE(rr.ProcessTick(TickReadings(t)).ok()) << "tick " << t;
    ExpectSameAnswers(rb, rr, t);
  }
  EXPECT_TRUE(rb.VerifyLinkConsistency().ok());
  std::remove(batched_path.c_str());
  std::remove(reference_path.c_str());
}

// ---------------------------------------------------------------------
// Residency counters.
//
// Every spill and every absorb reject is a function of one source's link
// state, so the per-reason counts must not depend on how sources are
// partitioned across shards.
// ---------------------------------------------------------------------

TEST(FleetChurn, SpillAndRejectReasonsMatchAtEveryShardCount) {
  std::vector<FleetCounters> counts;
  for (int shards : {1, 2, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardedStreamEngine engine(ChurnOptions(shards, /*batched=*/true));
    ASSERT_TRUE(engine.EnableTracing(ObsOptions()).ok());
    InstallBase(engine);
    RunChurn(engine, kTicks);
    const FleetCounters fleet = engine.fleet_counters();
    EXPECT_EQ(engine.fleet_spill_count(), fleet.spill_total());

    // The gauges carry the same numbers, under the documented names.
    const MetricsRegistry gauges = engine.FleetMetricsSnapshot();
    for (size_t i = 0; i < fleet.spills.size(); ++i) {
      EXPECT_EQ(gauges.gauge(std::string("fleet.spill.") +
                             kFleetSpillReasonNames[i]),
                static_cast<double>(fleet.spills[i]));
    }
    for (size_t i = 0; i < fleet.absorb_rejects.size(); ++i) {
      EXPECT_EQ(gauges.gauge(std::string("fleet.absorb_reject.") +
                             kFleetAbsorbRejectNames[i]),
                static_cast<double>(fleet.absorb_rejects[i]));
    }
    counts.push_back(fleet);
  }
  EXPECT_EQ(counts[0], counts[1]);
  EXPECT_EQ(counts[0], counts[2]);

  // The schedule is rich enough that the common reasons all fire. Its
  // delta-only query churn lands on resident lanes in place (no
  // reconfigure spill), and a resynced link whose ends differ only in
  // bookkeeping folds with per-end copies (no full-state mismatch).
  const FleetCounters& fleet = counts[0];
  EXPECT_GT(fleet.spills[static_cast<size_t>(FleetSpillReason::kDeviation)],
            0);
  EXPECT_EQ(
      fleet.spills[static_cast<size_t>(FleetSpillReason::kReconfigure)], 0);
  for (FleetAbsorbReject reason :
       {FleetAbsorbReject::kResyncPending, FleetAbsorbReject::kChannelResidue}) {
    EXPECT_GT(fleet.absorb_rejects[static_cast<size_t>(reason)], 0)
        << kFleetAbsorbRejectNames[static_cast<size_t>(reason)];
  }
  EXPECT_EQ(fleet.absorb_rejects[static_cast<size_t>(
                FleetAbsorbReject::kFullStateMismatch)],
            0);

  // Tracing off: no gauges.
  ShardedStreamEngine untraced(ChurnOptions(1, /*batched=*/true));
  InstallBase(untraced);
  RunChurn(untraced, 40);
  EXPECT_TRUE(untraced.FleetMetricsSnapshot() == MetricsRegistry());
}

// ---------------------------------------------------------------------
// Non-finite lanes.
//
// A resident lane whose flat predict overflows hands the tick to the
// per-source filter, which fails exactly as the per-source engine does.
// ---------------------------------------------------------------------

TEST(FleetSpill, NonFiniteLaneFailsLikeThePerSourcePath) {
  ModelNoise noise;
  StateModel exploding = MakeConstantModel(1, noise).value();
  exploding.options.transition = Matrix{{10.0}};  // P grows 100x a tick

  ShardedStreamEngineOptions options;
  options.batched_fleet = false;
  ShardedStreamEngine reference(options);
  options.batched_fleet = true;
  ShardedStreamEngine batched(options);
  for (ShardedStreamEngine* engine : {&reference, &batched}) {
    ASSERT_TRUE(engine->RegisterSource(1, exploding).ok());
    ContinuousQuery query;
    query.id = 1;
    query.source_id = 1;
    query.precision = 1e300;  // the zero reading is always suppressed
    ASSERT_TRUE(engine->SubmitQuery(query).ok());
  }
  const std::map<int, Vector> readings = {{1, Vector{0.0}}};
  bool was_resident = false;
  bool failed = false;
  for (int64_t t = 0; t < 400 && !failed; ++t) {
    const Status r = reference.ProcessTick(readings);
    const Status b = batched.ProcessTick(readings);
    ASSERT_EQ(b.ok(), r.ok()) << "tick " << t;
    if (!r.ok()) {
      EXPECT_EQ(b.code(), r.code());
      EXPECT_EQ(b.message(), r.message());
      failed = true;
    }
    was_resident = was_resident || batched.fleet_resident_count() == 1;
  }
  EXPECT_TRUE(failed) << "the covariance never overflowed";
  EXPECT_TRUE(was_resident);
  EXPECT_EQ(batched.fleet_counters().spills[static_cast<size_t>(
                FleetSpillReason::kNonFinite)],
            1);
  EXPECT_EQ(batched.fleet_spill_count(), 1);
}

/// Confidence answers (value, covariance, degraded flag) must be
/// bit-identical whether served from a lane or a server link.
void ExpectSameConfidentAnswers(ShardedStreamEngine& batched,
                                ShardedStreamEngine& reference, int64_t tick,
                                int num_sources) {
  for (int id = 1; id <= num_sources; ++id) {
    const ServerNode::ConfidentAnswer b =
        batched.AnswerWithConfidence(id).value();
    const ServerNode::ConfidentAnswer r =
        reference.AnswerWithConfidence(id).value();
    ASSERT_EQ(b.value[0], r.value[0]) << "tick " << tick << " source " << id;
    ASSERT_EQ(b.degraded, r.degraded) << "tick " << tick << " source " << id;
    ASSERT_EQ(b.covariance.has_value(), r.covariance.has_value())
        << "tick " << tick << " source " << id;
    if (b.covariance.has_value()) {
      ASSERT_EQ(b.covariance->MaxAbsDiff(*r.covariance), 0.0)
          << "tick " << tick << " source " << id;
    }
  }
}

// ---------------------------------------------------------------------
// Armed lanes.
//
// The steady-state fast path arms only under an unbroken
// predict/correct cadence with an exactly repeating covariance — a
// regime the randomized walks above never sustain. This workload
// manufactures it: every source violates delta on every tick (an
// alternating ±6 square wave) long enough for the filter to freeze its
// gain cycle, then settles onto a small sinusoid it can suppress
// indefinitely. Because a clean channel re-absorbs a source at the end
// of every corrected tick, the violation phase continuously thrashes
// absorb -> armed-lane tick -> violation spill, and the settle point
// lands an absorbed armed+corrected lane on the frozen-gain kernel;
// the tick after that is an uncorrected armed predict, which must
// disarm the lane exactly like KalmanFilter does. A late level jump
// kicks a third of the settled (tracking) lanes back off the batch.
// ---------------------------------------------------------------------

constexpr int kSteadySources = 24;
constexpr int64_t kSteadyTicks = 360;
constexpr int64_t kSteadyJumpTick = 260;

double SteadyValue(int id, int64_t t) {
  const int64_t settle = 120 + 4 * (id % 8);
  double value =
      t < settle ? (t % 2 == 0 ? 6.0 : -6.0)
                 : 0.25 * std::sin(0.01 * static_cast<double>(t + id));
  if (id % 3 == 0 && t >= kSteadyJumpTick) value += 25.0;
  return value;
}

void InstallSteadyWorkload(ShardedStreamEngine& engine) {
  ObsOptions obs;
  obs.ring_capacity = 1 << 18;
  ASSERT_TRUE(engine.EnableTracing(obs).ok());
  for (int id = 1; id <= kSteadySources; ++id) {
    ASSERT_TRUE(engine.RegisterSource(id, ScalarModel(0.05)).ok());
    ContinuousQuery query;
    query.id = id;
    query.source_id = id;
    query.precision = 2.0;
    ASSERT_TRUE(engine.SubmitQuery(query).ok());
  }
}

TEST(FleetSteadyState, ArmedLanesStayBitExactThroughThrash) {
  ShardedStreamEngineOptions options;
  options.num_shards = 1;
  options.channel.seed = 77;

  options.batched_fleet = false;
  ShardedStreamEngine reference(options);
  options.batched_fleet = true;
  ShardedStreamEngine batched(options);
  InstallSteadyWorkload(reference);
  InstallSteadyWorkload(batched);

  size_t max_residents = 0;
  int64_t updates_while_resident = 0;
  int64_t last_updates = 0;
  for (int64_t t = 0; t < kSteadyTicks; ++t) {
    std::map<int, Vector> readings;
    for (int id = 1; id <= kSteadySources; ++id) {
      readings[id] = Vector{SteadyValue(id, t)};
    }
    ASSERT_TRUE(reference.ProcessTick(readings).ok()) << "tick " << t;
    ASSERT_TRUE(batched.ProcessTick(readings).ok()) << "tick " << t;
    for (int id = 1; id <= kSteadySources; ++id) {
      ASSERT_EQ(batched.Answer(id).value()[0], reference.Answer(id).value()[0])
          << "tick " << t << " source " << id;
    }
    ExpectSameConfidentAnswers(batched, reference, t, kSteadySources);
    const size_t residents = batched.fleet_resident_count();
    // With a clean channel a spilled lane re-absorbs at the end of the
    // same tick, so the end-of-tick resident count never dips; updates
    // sent while the fleet reads fully resident are the visible proof
    // of the absorb -> violate -> spill -> re-absorb thrash.
    const int64_t updates = batched.uplink_traffic().messages;
    if (max_residents == static_cast<size_t>(kSteadySources)) {
      updates_while_resident += updates - last_updates;
    }
    last_updates = updates;
    max_residents = std::max(max_residents, residents);
    if (t % 60 == 0 || t == kSteadyTicks - 1) {
      ASSERT_TRUE(batched.VerifyLinkConsistency().ok()) << "tick " << t;
    }
  }
  EXPECT_EQ(max_residents, static_cast<size_t>(kSteadySources))
      << "the settled fleet never went fully resident";
  EXPECT_GT(updates_while_resident, 0)
      << "no resident lane ever spilled to send — the run never thrashed";

  // The scenario is vacuous unless the fast path actually armed and
  // disarmed, and the batched run must have traced the exact same
  // freeze/disarm/suppress/send sequence as the per-source run.
  int64_t freezes = 0;
  int64_t disarms = 0;
  for (const TraceEvent& event : batched.MergedTrace()) {
    if (event.kind == TraceEventKind::kFastPathFreeze) ++freezes;
    if (event.kind == TraceEventKind::kFastPathDisarm) ++disarms;
  }
  EXPECT_GT(freezes, 0) << "steady-state fast path never armed";
  EXPECT_GT(disarms, 0) << "no lane ever coasted off the frozen cycle";
  EXPECT_TRUE(batched.MergedTrace() == reference.MergedTrace())
      << "merged trace differs";
  EXPECT_TRUE(batched.VerifyMirrorConsistency().ok());
}

// ---------------------------------------------------------------------
// Degraded resident lanes.
//
// With a staleness budget but no heartbeats, a suppressed source goes
// overdue without ever becoming unhealthy — so it stays batch-resident
// while its answers must flip to degraded with the covariance inflated
// exactly like ServerNode does it (docs/protocol.md §6).
// ---------------------------------------------------------------------

TEST(FleetDegraded, StaleResidentLanesServeInflatedAnswers) {
  constexpr int kStaleSources = 6;
  constexpr int64_t kStaleTicks = 80;

  ShardedStreamEngineOptions options;
  options.num_shards = 1;
  options.channel.seed = 77;
  options.protocol.staleness_budget = 6;  // no heartbeat to reset it

  options.batched_fleet = false;
  ShardedStreamEngine reference(options);
  options.batched_fleet = true;
  ShardedStreamEngine batched(options);
  for (ShardedStreamEngine* engine : {&reference, &batched}) {
    for (int id = 1; id <= kStaleSources; ++id) {
      ASSERT_TRUE(engine->RegisterSource(id, ScalarModel(0.05)).ok());
      ContinuousQuery query;
      query.id = id;
      query.source_id = id;
      query.precision = 3.0;
      ASSERT_TRUE(engine->SubmitQuery(query).ok());
    }
  }

  bool saw_degraded_resident = false;
  for (int64_t t = 0; t < kStaleTicks; ++t) {
    std::map<int, Vector> readings;
    for (int id = 1; id <= kStaleSources; ++id) {
      // One step onto a per-source level, then flat forever: a couple
      // of early corrects, then an unbounded suppression streak.
      readings[id] = Vector{5.0 + static_cast<double>(id)};
    }
    ASSERT_TRUE(reference.ProcessTick(readings).ok()) << "tick " << t;
    ASSERT_TRUE(batched.ProcessTick(readings).ok()) << "tick " << t;
    for (int id = 1; id <= kStaleSources; ++id) {
      ASSERT_EQ(batched.Answer(id).value()[0], reference.Answer(id).value()[0])
          << "tick " << t << " source " << id;
      ASSERT_EQ(batched.answer_degraded(id).value(),
                reference.answer_degraded(id).value())
          << "tick " << t << " source " << id;
    }
    ExpectSameConfidentAnswers(batched, reference, t, kStaleSources);
    if (batched.fleet_resident_count() == kStaleSources &&
        batched.answer_degraded(1).value()) {
      saw_degraded_resident = true;
    }
  }
  EXPECT_TRUE(saw_degraded_resident)
      << "no fully-resident tick ever served a degraded answer — the "
         "staleness budget never tripped on a lane";
  EXPECT_GT(batched.fault_stats().degraded_ticks, 0);
  EXPECT_EQ(batched.fault_stats().degraded_ticks,
            reference.fault_stats().degraded_ticks);
}

// The same stale-suppression run, watched by band alerts with
// uncertainty ceilings. Serve reads each source's variance as a scalar:
// from the lane on a resident source, from ServerNode::AnswerScalar on
// a spilled one (and always on the per-source reference). Both must
// apply the degraded inflation, or the ceilings trip on different ticks
// and with different variances.
TEST(FleetDegraded, StaleResidentLanesAlertOnInflatedVariance) {
  constexpr int kStaleSources = 6;
  constexpr int64_t kStaleTicks = 80;
  constexpr int kCeilings = 24;

  ShardedStreamEngineOptions options;
  options.num_shards = 1;
  options.channel.seed = 77;
  options.protocol.staleness_budget = 6;  // no heartbeat to reset it

  options.batched_fleet = false;
  ShardedStreamEngine reference(options);
  options.batched_fleet = true;
  ShardedStreamEngine batched(options);
  for (ShardedStreamEngine* engine : {&reference, &batched}) {
    for (int id = 1; id <= kStaleSources; ++id) {
      ASSERT_TRUE(engine->RegisterSource(id, ScalarModel(0.05)).ok());
      ContinuousQuery query;
      query.id = id;
      query.source_id = id;
      query.precision = 3.0;
      ASSERT_TRUE(engine->SubmitQuery(query).ok());
      // A ladder of ceilings, so the growing variance of a suppressed
      // source crosses one every few ticks.
      for (int k = 0; k < kCeilings; ++k) {
        Subscription alert;
        alert.id = id * 100 + k;
        alert.kind = SubscriptionKind::kBandAlert;
        alert.source_id = id;
        alert.lo = -100.0;
        alert.hi = 100.0;
        alert.uncertainty_ceiling = 0.01 * std::pow(1.5, k);
        ASSERT_TRUE(engine->Subscribe(alert).ok());
      }
    }
  }

  bool saw_degraded_resident_alert = false;
  for (int64_t t = 0; t < kStaleTicks; ++t) {
    std::map<int, Vector> readings;
    for (int id = 1; id <= kStaleSources; ++id) {
      readings[id] = Vector{5.0 + static_cast<double>(id)};
    }
    ASSERT_TRUE(reference.ProcessTick(readings).ok()) << "tick " << t;
    ASSERT_TRUE(batched.ProcessTick(readings).ok()) << "tick " << t;
    const std::vector<NotificationBatch> from_batched =
        batched.DrainNotifications();
    const std::vector<NotificationBatch> from_reference =
        reference.DrainNotifications();
    ASSERT_TRUE(from_batched == from_reference) << "tick " << t;
    if (batched.fleet_resident_count() != kStaleSources) continue;
    for (const NotificationBatch& batch : from_batched) {
      for (const Notification& n : batch.notifications) {
        if (n.kind == NotificationKind::kUncertaintyHigh &&
            batched.answer_degraded(n.source_id).value()) {
          saw_degraded_resident_alert = true;
        }
      }
    }
  }
  EXPECT_TRUE(saw_degraded_resident_alert)
      << "no ceiling tripped while a resident lane served degraded";
}

}  // namespace
}  // namespace dkf
