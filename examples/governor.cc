// Governor: a fleet-wide uplink budget that holds when the load
// doubles mid-run.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/governor
//
// Thirty-two random-walk sensors stream through the suppression
// protocol under a delta governor holding the fleet to a fixed
// bytes-per-tick budget (docs/governor.md). Every query asks for far
// more precision than the budget affords, so the governor has to trade
// precision for bandwidth from the first epoch. Halfway through the
// run the fleet doubles to sixty-four sensors — the moment a static
// per-source allocation would blow the uplink — and the governor
// re-spreads the same budget across twice the demand by widening
// deltas (more suppression per sensor, same bytes on the wire).
//
// The program prints the wire rate around the expansion and exits
// nonzero unless both halves settle within 10% of the budget and the
// doubled fleet is the more suppressed one — the ctest smoke test
// leans on those checks.

#include <cstdio>
#include <vector>

#include "common/rng.h"
#include "models/model_factory.h"
#include "runtime/sharded_engine.h"

int main() {
  using namespace dkf;

  constexpr double kBudget = 120.0;     // bytes per tick, whole fleet
  constexpr int64_t kEpochTicks = 16;
  constexpr int kInitialFleet = 32;
  constexpr int kDoubledFleet = 64;
  constexpr int kEpochsPerPhase = 45;
  constexpr int kSettledWindow = 15;    // last N epochs of each phase

  // 1. A governed sharded engine: the governor observes per-source
  //    uplink counters every epoch, Kalman-fits each stream's
  //    rate-vs-delta sensitivity, and water-fills delta so the fleet
  //    spend meets the budget.
  ShardedStreamEngineOptions options;
  options.num_shards = 2;
  options.channel.seed = 7;
  options.governor.enabled = true;
  options.governor.epoch_ticks = kEpochTicks;
  options.governor.budget_bytes_per_tick = kBudget;
  options.governor.delta_floor = 0.05;
  options.governor.delta_ceiling = 256.0;
  options.governor.max_step_ratio = 2.0;
  options.governor.dead_band = 0.10;
  ShardedStreamEngine engine(options);

  ModelNoise noise;
  noise.process_variance = 0.05;
  noise.measurement_variance = 0.05;
  const StateModel model = MakeLinearModel(1, 1.0, noise).value();

  const auto add_sensor = [&](int id) {
    if (!engine.RegisterSource(id, model).ok()) return false;
    ContinuousQuery query;
    query.id = id;
    query.source_id = id;
    query.precision = 0.5;  // far tighter than the budget affords
    return engine.SubmitQuery(query).ok();
  };
  for (int id = 1; id <= kInitialFleet; ++id) {
    if (!add_sensor(id)) return 1;
  }

  // 2. Drive the walk; at the phase boundary, double the fleet
  //    mid-stream. New sensors join with the default delta and are
  //    pulled into the next epoch's allocation like everyone else.
  Rng rng(17);
  std::vector<double> values(kDoubledFleet + 1, 0.0);
  std::map<int, Vector> readings;
  int fleet = kInitialFleet;
  int64_t last_bytes = 0;
  double phase_rate[2] = {0.0, 0.0};
  double mean_delta[2] = {0.0, 0.0};

  std::printf("epoch  sensors  bytes/tick  (budget %.0f)\n", kBudget);
  for (int phase = 0; phase < 2; ++phase) {
    if (phase == 1) {
      for (int id = kInitialFleet + 1; id <= kDoubledFleet; ++id) {
        if (!add_sensor(id)) return 1;
      }
      std::printf("-- fleet doubled to %d sensors --\n", kDoubledFleet);
      fleet = kDoubledFleet;
    }
    int64_t settled_start_bytes = 0;
    for (int epoch = 0; epoch < kEpochsPerPhase; ++epoch) {
      if (epoch == kEpochsPerPhase - kSettledWindow) {
        settled_start_bytes = engine.uplink_traffic().bytes;
      }
      for (int64_t t = 0; t < kEpochTicks; ++t) {
        for (int id = 1; id <= fleet; ++id) {
          values[id] += rng.Gaussian(0.02 * (id % 5), 0.7);
          readings[id] = Vector{values[id]};
        }
        if (!engine.ProcessTick(readings).ok()) return 1;
      }
      const int64_t bytes = engine.uplink_traffic().bytes;
      const bool near_boundary =
          epoch < 3 || epoch >= kEpochsPerPhase - 2;
      if (near_boundary) {
        std::printf("%5d  %7d  %10.1f\n",
                    phase * kEpochsPerPhase + epoch + 1, fleet,
                    static_cast<double>(bytes - last_bytes) /
                        static_cast<double>(kEpochTicks));
      } else if (epoch == 3) {
        std::printf("  ...\n");
      }
      last_bytes = bytes;
    }
    phase_rate[phase] =
        static_cast<double>(engine.uplink_traffic().bytes -
                            settled_start_bytes) /
        static_cast<double>(kSettledWindow * kEpochTicks);
    for (int id = 1; id <= fleet; ++id) {
      mean_delta[phase] += engine.source_delta(id).value();
    }
    mean_delta[phase] /= static_cast<double>(fleet);
  }

  std::printf(
      "settled: %.1f bytes/tick at %d sensors, %.1f at %d "
      "(mean delta %.2f -> %.2f)\n",
      phase_rate[0], kInitialFleet, phase_rate[1], kDoubledFleet,
      mean_delta[0], mean_delta[1]);

  // 3. Self-checks: both halves hold the budget band, and the doubled
  //    fleet paid for it with wider deltas, not more bytes.
  bool ok = true;
  for (int phase = 0; phase < 2; ++phase) {
    if (phase_rate[phase] > kBudget * 1.10) {
      std::printf("FAIL: phase %d settled %.1f bytes/tick, over budget\n",
                  phase, phase_rate[phase]);
      ok = false;
    }
  }
  if (mean_delta[1] <= mean_delta[0]) {
    std::printf("FAIL: doubling the fleet should widen deltas "
                "(%.2f -> %.2f)\n",
                mean_delta[0], mean_delta[1]);
    ok = false;
  }
  if (!ok) return 1;
  std::printf("budget held through a mid-run fleet doubling\n");
  return 0;
}
