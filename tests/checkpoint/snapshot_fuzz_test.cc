// Decoder fuzz harness for the snapshot codec (docs/checkpoint.md). A
// rich snapshot — faults, in-flight messages, smoothing, adaptive noise,
// an aggregate, a fusion group, standing subscriptions with buffered
// notifications, the governor, and a wrapped trace ring — is saved by a
// live engine, then every payload truncation and a few thousand seeded
// bit flips and byte overwrites are fed back. The header checksum and
// length are recomputed after each mutation, so the damage gets past
// the file checks and reaches the field decoders. Every input must
// decode to a non-OK Status or to a snapshot; every snapshot that
// decodes must make ShardedStreamEngine::Restore return a Status, and
// every mutant that restores is then ticked on the batched fleet: each
// tick must return OK or a Status. A second, fleet-friendly snapshot
// (converged sources, frequent heartbeats) is mutated the same way, so
// hostile state also goes through lane absorption (the node is freed)
// and spills (the node is rebuilt from the lane and its record).
// Nothing may crash, hang or trip a sanitizer.

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "checkpoint/snapshot_io.h"
#include "common/binary_io.h"
#include "common/rng.h"
#include "models/model_factory.h"
#include "runtime/sharded_engine.h"
#include "serve/subscription.h"

namespace dkf {
namespace {

constexpr size_t kHeaderBytes = 28;  // 8 magic + u32 version + 2 x u64
constexpr uint64_t kMutationSeeds = 2400;
constexpr int64_t kSnapTick = 40;
constexpr int64_t kMutantTicks = 8;
constexpr uint64_t kFleetMutationSeeds = 600;
constexpr int64_t kFleetSnapTick = 60;

/// Seeds whose mutants decode but are refused deep inside Restore: a
/// binding that names an unregistered source (116), misshapen fast-path
/// matrices (1620), an implausible noise-adapter state (1550), and a
/// fused subscription whose group id no longer matches (1792). They run
/// first so a regression on those paths fails fast.
constexpr uint64_t kRegressionSeeds[] = {116, 1550, 1620, 1792};

StateModel ScalarModel(double process_variance) {
  ModelNoise noise;
  noise.process_variance = process_variance;
  noise.measurement_variance = 0.05;
  return MakeLinearModel(1, 1.0, noise).value();
}

ShardedStreamEngineOptions RichOptions() {
  ShardedStreamEngineOptions options;
  options.num_shards = 2;
  options.channel.seed = 77;
  options.channel.drop_probability = 0.1;
  FaultModel fault;
  fault.gilbert_elliott = GilbertElliottLoss{0.05, 0.3, 0.0, 1.0};
  fault.delay = DelayModel{0, 2};
  fault.outages.push_back(OutageWindow{30, 45});
  fault.ack_loss_probability = 0.05;
  fault.corruption_probability = 0.05;
  options.channel.fault = fault;
  options.protocol.heartbeat_interval = 3;
  options.protocol.staleness_budget = 5;
  options.protocol.adaptive.enabled = true;
  options.governor.enabled = true;
  options.governor.epoch_ticks = 8;
  options.governor.budget_bytes_per_tick = 200.0;
  return options;
}

std::map<int, Vector> ReadingsAt(int64_t tick) {
  const double t = static_cast<double>(tick);
  std::map<int, Vector> readings;
  for (int id = 1; id <= 4; ++id) {
    readings[id] = Vector{std::sin(0.07 * t * id) + 0.3 * id};
  }
  for (int id = 100; id <= 102; ++id) {
    readings[id] = Vector{0.05 * t + 0.02 * std::sin(0.9 * t + id)};
  }
  return readings;
}

/// The fleet corpus's sources: the rich corpus's plain sources alone,
/// stepping up by 10 three ticks after the snapshot — far outside every
/// source's delta, so each lane a restored mutant absorbed spills again.
std::map<int, Vector> FleetReadingsAt(int64_t tick) {
  std::map<int, Vector> readings = ReadingsAt(tick);
  readings.erase(readings.find(100), readings.end());
  if (tick >= kFleetSnapTick + 3) {
    for (auto& [id, value] : readings) value[0] += 10.0;
  }
  return readings;
}

using ReadingsFn = std::map<int, Vector> (*)(int64_t);

/// The payload (header stripped) of a snapshot saved mid-outage.
std::string RichPayload() {
  ShardedStreamEngine engine(RichOptions());
  ObsOptions obs;
  obs.ring_capacity = 32;  // wraps, so the counters exceed the events
  EXPECT_TRUE(engine.EnableTracing(obs).ok());
  for (int id = 1; id <= 4; ++id) {
    EXPECT_TRUE(engine.RegisterSource(id, ScalarModel(0.01 * id)).ok());
    ContinuousQuery query;
    query.id = id;
    query.source_id = id;
    query.precision = 0.4 + 0.1 * id;
    if (id == 3) query.smoothing_factor = 0.5;
    EXPECT_TRUE(engine.SubmitQuery(query).ok());
  }
  EXPECT_TRUE(
      engine.SubmitAggregateQuery(AggregateQuery{7, {2, 4}, 1.5}).ok());
  FusionGroupConfig group;
  group.group_id = 50;
  group.model = ScalarModel(0.04);
  group.member_ids = {100, 101, 102};
  group.delta = 0.5;
  EXPECT_TRUE(engine.RegisterFusionGroup(group).ok());
  FusedQuery fused;
  fused.id = 90;
  fused.group_id = 50;
  fused.precision = 0.4;
  EXPECT_TRUE(engine.SubmitFusedQuery(fused).ok());
  Subscription band;
  band.id = 1;
  band.kind = SubscriptionKind::kBandAlert;
  band.source_id = 2;
  band.lo = 0.0;
  band.hi = 0.7;
  EXPECT_TRUE(engine.Subscribe(band).ok());
  Subscription aggregate;
  aggregate.id = 2;
  aggregate.kind = SubscriptionKind::kAggregate;
  aggregate.aggregate_id = 7;
  EXPECT_TRUE(engine.Subscribe(aggregate).ok());
  Subscription fused_sub;
  fused_sub.id = 3;
  fused_sub.kind = SubscriptionKind::kFused;
  fused_sub.group_id = 50;
  EXPECT_TRUE(engine.Subscribe(fused_sub).ok());
  for (int64_t t = 0; t < kSnapTick; ++t) {
    EXPECT_TRUE(engine.ProcessTick(ReadingsAt(t)).ok());
  }
  const std::string path = ::testing::TempDir() + "/fuzz_rich.dkfsnap";
  EXPECT_TRUE(engine.Save(path).ok());
  auto bytes_or = ReadFileBytes(path);
  EXPECT_TRUE(bytes_or.ok());
  return bytes_or.value().substr(kHeaderBytes);
}

/// The payload of a batched-fleet snapshot whose sources are mostly
/// resident when saved: the restored mutants absorb at the end of their
/// first tick, their lanes send the 5-tick heartbeat themselves, and the
/// readings' step spills every lane again within the ticks that follow.
/// Early faults leave fault counters behind for the lanes' node records
/// to carry.
std::string FleetPayload() {
  ShardedStreamEngineOptions options;
  options.num_shards = 2;
  options.batched_fleet = true;
  options.channel.seed = 5;
  options.channel.drop_probability = 0.05;
  FaultModel fault;
  fault.ack_loss_probability = 0.1;
  fault.active_until = 20;
  options.channel.fault = fault;
  options.protocol.heartbeat_interval = 5;
  options.protocol.staleness_budget = 8;
  ShardedStreamEngine engine(options);
  for (int id = 1; id <= 4; ++id) {
    EXPECT_TRUE(engine.RegisterSource(id, ScalarModel(0.01 * id)).ok());
    ContinuousQuery query;
    query.id = id;
    query.source_id = id;
    query.precision = 3.0;
    EXPECT_TRUE(engine.SubmitQuery(query).ok());
  }
  for (int64_t t = 0; t < kFleetSnapTick; ++t) {
    EXPECT_TRUE(engine.ProcessTick(FleetReadingsAt(t)).ok());
  }
  EXPECT_GT(engine.fleet_resident_count(), 0u);
  const std::string path = ::testing::TempDir() + "/fuzz_fleet.dkfsnap";
  EXPECT_TRUE(engine.Save(path).ok());
  auto bytes_or = ReadFileBytes(path);
  EXPECT_TRUE(bytes_or.ok());
  return bytes_or.value().substr(kHeaderBytes);
}

/// A full file image around `payload` with a matching checksum and
/// length.
std::string WrapPayload(const std::string& payload) {
  BinaryWriter file;
  for (char c : std::string(kSnapshotMagic)) {
    file.WriteU8(static_cast<uint8_t>(c));
  }
  file.WriteU32(kSnapshotVersion);
  file.WriteU64(Fnv1a64(reinterpret_cast<const uint8_t*>(payload.data()),
                        payload.size()));
  file.WriteU64(payload.size());
  return file.TakeBytes() + payload;
}

/// One seeded mutation: odd seeds flip a single bit, even seeds
/// overwrite one byte with a random value.
std::string Mutate(const std::string& payload, uint64_t seed) {
  Rng rng(seed);
  std::string mutated = payload;
  const size_t at = static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(payload.size()) - 1));
  if (seed % 2 == 1) {
    mutated[at] =
        static_cast<char>(mutated[at] ^ (1 << rng.UniformInt(0, 7)));
  } else {
    mutated[at] = static_cast<char>(rng.UniformInt(0, 255));
  }
  return mutated;
}

struct Outcome {
  int decoded = 0;
  int restored = 0;
  int ticked_clean = 0;  // restored on the batched fleet, 8 OK ticks
  int absorbed = 0;      // ticked mutants that folded a source into a lane
  int spilled = 0;       // ... and spilled one back out
};

/// Decodes `file`; a successful decode must also survive Restore, on
/// the per-source path or the batched fleet (alternating by `seed`).
/// A mutant that restores is then restored on the batched fleet and
/// ticked kMutantTicks times, stopping at the first tick that fails.
void DecodeAndRestore(const std::string& file, uint64_t seed,
                      Outcome* outcome, ReadingsFn readings = ReadingsAt) {
  auto decoded = DecodeSnapshot(file);
  if (!decoded.ok()) return;
  ++outcome->decoded;
  const std::string path = ::testing::TempDir() + "/fuzz_mutant.dkfsnap";
  ASSERT_TRUE(WriteFileBytes(path, file).ok());
  const bool batched = seed % 2 == 1;
  auto restored = ShardedStreamEngine::Restore(path, /*num_shards=*/2,
                                               /*batched_fleet=*/batched);
  if (!restored.ok()) return;
  ++outcome->restored;
  if (!batched) {
    restored = ShardedStreamEngine::Restore(path, /*num_shards=*/2,
                                            /*batched_fleet=*/true);
    if (!restored.ok()) return;
  }
  ShardedStreamEngine& engine = *restored.value();
  bool absorbed = false;
  for (int64_t i = 0; i < kMutantTicks; ++i) {
    const Status ticked = engine.ProcessTick(readings(engine.ticks()));
    absorbed = absorbed || engine.fleet_resident_count() > 0;
    if (!ticked.ok()) break;
    if (i + 1 == kMutantTicks) ++outcome->ticked_clean;
  }
  if (absorbed) ++outcome->absorbed;
  if (engine.fleet_spill_count() > 0) ++outcome->spilled;
}

TEST(SnapshotFuzzTest, UnmutatedSnapshotRestores) {
  const std::string file = WrapPayload(RichPayload());
  ASSERT_TRUE(DecodeSnapshot(file).ok());
  Outcome outcome;
  DecodeAndRestore(file, 0, &outcome);
  DecodeAndRestore(file, 1, &outcome);
  EXPECT_EQ(outcome.restored, 2);
  EXPECT_EQ(outcome.ticked_clean, 2);

  const std::string fleet_file = WrapPayload(FleetPayload());
  Outcome fleet;
  DecodeAndRestore(fleet_file, 0, &fleet, FleetReadingsAt);
  DecodeAndRestore(fleet_file, 1, &fleet, FleetReadingsAt);
  EXPECT_EQ(fleet.ticked_clean, 2);
  EXPECT_EQ(fleet.absorbed, 2);
  EXPECT_EQ(fleet.spilled, 2);
}

// A mirror whose adapted process noise carries a NaN decodes (the codec
// screens only the model recipe for finiteness) but must not restore:
// every later Predict of that link would fail. The filter's full-state
// import screens every matrix and vector, on either engine kind.
TEST(SnapshotFuzzTest, NonFiniteAdaptedNoiseIsRefusedOnRestore) {
  auto decoded = DecodeSnapshot(WrapPayload(RichPayload()));
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EngineSnapshot snapshot = std::move(decoded).value();
  ASSERT_FALSE(snapshot.sources.empty());
  ASSERT_TRUE(snapshot.protocol.adaptive.enabled);
  snapshot.sources[0].node.mirror.process_noise(0, 0) = std::nan("");
  auto bytes = EncodeSnapshot(snapshot);
  ASSERT_TRUE(bytes.ok()) << bytes.status().message();
  const std::string path = ::testing::TempDir() + "/fuzz_nan_q.dkfsnap";
  ASSERT_TRUE(WriteFileBytes(path, bytes.value()).ok());
  for (const bool batched : {false, true}) {
    SCOPED_TRACE(batched ? "batched" : "per-source");
    auto restored = ShardedStreamEngine::Restore(path, /*num_shards=*/2,
                                                 /*batched_fleet=*/batched);
    ASSERT_FALSE(restored.ok());
    EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument)
        << restored.status().message();
  }
}

TEST(SnapshotFuzzTest, EveryTruncationFailsCleanly) {
  const std::string payload = RichPayload();
  for (size_t length = 0; length < payload.size(); ++length) {
    auto result = DecodeSnapshot(WrapPayload(payload.substr(0, length)));
    ASSERT_FALSE(result.ok()) << "prefix of " << length << " bytes decoded";
    ASSERT_EQ(result.status().code(), StatusCode::kOutOfRange)
        << length << ": " << result.status().message();
  }
}

TEST(SnapshotFuzzTest, SeededMutationsDecodeOrFailCleanly) {
  const std::string payload = RichPayload();
  Outcome outcome;
  for (uint64_t seed : kRegressionSeeds) {
    SCOPED_TRACE(seed);
    DecodeAndRestore(WrapPayload(Mutate(payload, seed)), seed, &outcome);
  }
  for (uint64_t seed = 1; seed <= kMutationSeeds; ++seed) {
    SCOPED_TRACE(seed);
    DecodeAndRestore(WrapPayload(Mutate(payload, seed)), seed, &outcome);
    if (HasFatalFailure()) return;
  }
  // Most flips land in doubles and still decode, so the restore path is
  // exercised too, not just the decoder's rejections.
  EXPECT_GT(outcome.decoded, 100);
  EXPECT_GT(outcome.restored, 0);
  EXPECT_GT(outcome.ticked_clean, 0);
  std::printf(
      "payload %zu bytes: %d of %llu mutants decoded, %d restored, %d "
      "ticked %lld times without error\n",
      payload.size(), outcome.decoded,
      static_cast<unsigned long long>(kMutationSeeds +
                                      std::size(kRegressionSeeds)),
      outcome.restored, outcome.ticked_clean,
      static_cast<long long>(kMutantTicks));
}

TEST(SnapshotFuzzTest, SeededFleetMutationsTickCleanly) {
  const std::string payload = FleetPayload();
  Outcome outcome;
  for (uint64_t seed = 1; seed <= kFleetMutationSeeds; ++seed) {
    SCOPED_TRACE(seed);
    DecodeAndRestore(WrapPayload(Mutate(payload, seed)), seed, &outcome,
                     FleetReadingsAt);
    if (HasFatalFailure()) return;
  }
  // Hostile lane state really went through absorb and spill.
  EXPECT_GT(outcome.absorbed, 100);
  EXPECT_GT(outcome.spilled, 100);
  std::printf(
      "fleet payload %zu bytes: %d of %llu mutants decoded, %d restored, "
      "%d ticked cleanly, %d absorbed, %d spilled\n",
      payload.size(), outcome.decoded,
      static_cast<unsigned long long>(kFleetMutationSeeds), outcome.restored,
      outcome.ticked_clean, outcome.absorbed, outcome.spilled);
}

}  // namespace
}  // namespace dkf
