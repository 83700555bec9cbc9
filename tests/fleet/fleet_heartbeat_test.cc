// Deterministic perf contract for resident heartbeats (docs/fleet.md): a
// resident lane sends its due heartbeat through the channel itself, so on
// a fault-free, fully resident fleet a heartbeat tick costs no heap
// allocation and no spill beyond what the same fleet costs with
// heartbeats off, and that is none at all. Counted over a 400-tick window
// after warm-up, at 1 and 4 shards, with this binary's counting operator
// new. Between ticks, answering every resident source costs none either.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "models/model_factory.h"
#include "runtime/sharded_engine.h"
#include "support/counting_new.h"

namespace dkf {
namespace {

constexpr int kFleet = 256;
constexpr int64_t kWarmup = 120;
constexpr int kWindow = 400;
constexpr int64_t kHeartbeatInterval = 4;

/// What one fleet costs over the measured window.
struct WindowCost {
  uint64_t allocations = 0;
  int64_t spills = 0;
  int64_t heartbeats_received = 0;
};

/// A fleet of kFleet sources on the fleet or the per-source path, warmed
/// up for kWarmup ticks. The signal is slow, inside delta, around a level
/// near the filters' prior: every source stays suppressed once
/// converged. Written in place, so the readings cost a window nothing.
class QuietFleet {
 public:
  QuietFleet(int num_shards, bool batched, int64_t heartbeat_interval = 0)
      : engine_(Options(num_shards, batched, heartbeat_interval)) {
    ModelNoise noise;
    noise.process_variance = 0.01;
    noise.measurement_variance = 0.05;
    const StateModel model = MakeLinearModel(1, 1.0, noise).value();
    for (int id = 0; id < kFleet; ++id) {
      EXPECT_TRUE(engine_.RegisterSource(id, model).ok());
      batch_.ids.push_back(id);
      batch_.values.push_back(Vector{0.0});
    }
    for (int64_t i = 0; i < kWarmup; ++i) Tick();
    if (batched) {
      EXPECT_EQ(engine_.fleet_resident_count(), static_cast<size_t>(kFleet));
    }
  }

  void Tick() {
    for (int id = 0; id < kFleet; ++id) {
      batch_.values[static_cast<size_t>(id)][0] =
          static_cast<double>(id % 200) / 100.0 - 1.0 +
          1.5 * std::sin(0.02 * static_cast<double>(t_) + id);
    }
    ASSERT_TRUE(engine_.ProcessTick(batch_).ok()) << "tick " << t_;
    ++t_;
  }

  ShardedStreamEngine& engine() { return engine_; }

 private:
  static ShardedStreamEngineOptions Options(int num_shards, bool batched,
                                            int64_t heartbeat_interval) {
    ShardedStreamEngineOptions options;
    options.num_shards = num_shards;
    options.batched_fleet = batched;
    options.default_delta = 4.0;
    options.protocol.heartbeat_interval = heartbeat_interval;
    return options;
  }

  ShardedStreamEngine engine_;
  ReadingBatch batch_;
  int64_t t_ = 0;
};

WindowCost RunFleet(int num_shards, int64_t heartbeat_interval) {
  QuietFleet fleet(num_shards, /*batched=*/true, heartbeat_interval);
  ShardedStreamEngine& engine = fleet.engine();
  WindowCost cost;
  const int64_t spills_before = engine.fleet_spill_count();
  const int64_t received_before = engine.fault_stats().heartbeats_received;
  cost.allocations = AllocationsOver(kWindow, [&] { fleet.Tick(); });
  cost.spills = engine.fleet_spill_count() - spills_before;
  cost.heartbeats_received =
      engine.fault_stats().heartbeats_received - received_before;
  EXPECT_EQ(engine.fleet_resident_count(), static_cast<size_t>(kFleet));
  return cost;
}

TEST(FleetHeartbeatContract, HeartbeatTicksAddNoAllocationsOrSpills) {
  for (int shards : {1, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const WindowCost silent = RunFleet(shards, /*heartbeat_interval=*/0);
    const WindowCost beating = RunFleet(shards, kHeartbeatInterval);
    // Every lane beats once per interval all window long, delivered and
    // admitted on its own link.
    EXPECT_EQ(silent.heartbeats_received, 0);
    EXPECT_EQ(beating.heartbeats_received,
              int64_t{kFleet} * kWindow / kHeartbeatInterval);
    EXPECT_EQ(silent.spills, 0);
    EXPECT_EQ(beating.spills, 0);
    EXPECT_EQ(beating.allocations, silent.allocations);
    // A quiet resident tick touches the allocator nowhere: not in the
    // lanes, not in the engine's per-tick fan-out to the shards.
    EXPECT_EQ(silent.allocations, 0u);
    std::printf("shards=%d window allocations: %llu without heartbeats, "
                "%llu with\n",
                shards, static_cast<unsigned long long>(silent.allocations),
                static_cast<unsigned long long>(beating.allocations));
  }
}

/// Allocations over the measured window when every tick is followed by
/// a drain of the (empty) notification stream.
uint64_t QuietTickAndDrainAllocations(int num_shards, bool batched) {
  QuietFleet fleet(num_shards, batched);
  return AllocationsOver(kWindow, [&] {
    fleet.Tick();
    EXPECT_TRUE(fleet.engine().DrainNotifications().empty());
  });
}

TEST(FleetHeartbeatContract, QuietTickAndDrainAllocateNothing) {
  // With no subscription anywhere, the drain has nothing to merge, so a
  // quiet tick plus its drain touches the allocator nowhere, per-source
  // or fleet, at any shard count.
  for (bool batched : {false, true}) {
    for (int shards : {1, 4}) {
      SCOPED_TRACE(std::string(batched ? "fleet" : "per-source") +
                   " shards=" + std::to_string(shards));
      EXPECT_EQ(QuietTickAndDrainAllocations(shards, batched), 0u);
    }
  }
}

TEST(FleetHeartbeatContract, ResidentAnswersAllocateNothing) {
  // Answer and AnswerWithConfidence of a resident source read its lane's
  // columns into the returned vector and matrix, whose inline storage
  // holds a scalar model's values: no FullState, no heap.
  constexpr int kAnswerTicks = 20;
  for (int shards : {1, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    QuietFleet fleet(shards, /*batched=*/true);
    uint64_t allocations = 0;
    for (int i = 0; i < kAnswerTicks; ++i) {
      fleet.Tick();
      allocations += CountAllocations([&] {
                       for (int id = 0; id < kFleet; ++id) {
                         const bool ok =
                             fleet.engine().Answer(id).ok() &&
                             fleet.engine().AnswerWithConfidence(id).ok();
                         EXPECT_TRUE(ok) << "source " << id;
                       }
                     }).calls;
    }
    EXPECT_EQ(fleet.engine().fleet_resident_count(),
              static_cast<size_t>(kFleet));
    EXPECT_EQ(allocations, 0u);
  }
}

}  // namespace
}  // namespace dkf
