// Fusion: eight redundant temperature sensors, one fused estimate.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/fusion
//
// Eight thermometers watch the same room. Registered as eight plain
// dual-filter sources they stream eight correlated copies of the same
// temperature — every sensor independently breaks its trigger when the
// room drifts. Registered as one fusion group (docs/fusion.md) the
// first sensor to notice a drift corrects the shared fused posterior,
// the server re-locks every member's mirror over the instant downlink
// broadcast, and the other seven test their readings against a
// posterior that already absorbed the news — so they stay silent. One
// answer, a fraction of the uplink.
//
// The program drives both deployments over bit-identical readings,
// prints the uplink bill and answer quality side by side, and exits
// nonzero unless the fused uplink is below half the per-source
// baseline's and the fused answer tracks the true temperature — the
// ctest smoke test leans on those checks.

#include <cmath>
#include <cstdio>
#include <map>
#include <vector>

#include "common/rng.h"
#include "models/model_factory.h"
#include "runtime/sharded_engine.h"

int main() {
  using namespace dkf;

  constexpr int kSensors = 8;
  constexpr int64_t kTicks = 1500;
  constexpr double kDelta = 1.5;  // degrees the reader tolerates

  // 1. One room, eight noisy thermometers: a slow random-walk truth
  //    plus independent per-sensor measurement noise. Both deployments
  //    replay exactly these readings.
  Rng rng(21);
  std::vector<double> truth;
  std::vector<std::map<int, Vector>> readings(kTicks);
  double temperature = 21.0;
  for (int64_t t = 0; t < kTicks; ++t) {
    temperature += rng.Gaussian(0.0, 0.4);
    truth.push_back(temperature);
    for (int s = 1; s <= kSensors; ++s) {
      readings[static_cast<size_t>(t)][s] =
          Vector{temperature + rng.Gaussian(0.0, 0.4)};
    }
  }

  ModelNoise noise;
  noise.process_variance = 0.05;
  noise.measurement_variance = 0.2;
  const StateModel model = MakeLinearModel(1, 1.0, noise).value();

  // 2. Baseline: eight independent links, one query each at the same
  //    tolerance. The reader averages the eight answers client-side.
  ShardedStreamEngineOptions plain_options;
  plain_options.channel.seed = 5;
  ShardedStreamEngine plain(plain_options);
  for (int s = 1; s <= kSensors; ++s) {
    if (!plain.RegisterSource(s, model).ok()) return 1;
    ContinuousQuery query;
    query.id = s;
    query.source_id = s;
    query.precision = kDelta;
    if (!plain.SubmitQuery(query).ok()) return 1;
  }

  // 3. Fused: the same eight sensors as one group at the same delta.
  ShardedStreamEngineOptions fused_options;
  fused_options.channel.seed = 5;
  ShardedStreamEngine fused(fused_options);
  FusionGroupConfig group;
  group.group_id = 1;
  group.model = model;
  for (int s = 1; s <= kSensors; ++s) group.member_ids.push_back(s);
  group.delta = kDelta;
  if (!fused.RegisterFusionGroup(group).ok()) return 1;

  double plain_sq_error = 0.0;
  double fused_sq_error = 0.0;
  for (int64_t t = 0; t < kTicks; ++t) {
    const auto& tick_readings = readings[static_cast<size_t>(t)];
    if (!plain.ProcessTick(tick_readings).ok()) return 1;
    if (!fused.ProcessTick(tick_readings).ok()) return 1;
    double mean = 0.0;
    for (int s = 1; s <= kSensors; ++s) mean += plain.Answer(s).value()[0];
    mean /= static_cast<double>(kSensors);
    const double plain_error = mean - truth[static_cast<size_t>(t)];
    const double fused_error =
        fused.AnswerFused(1).value()[0] - truth[static_cast<size_t>(t)];
    plain_sq_error += plain_error * plain_error;
    fused_sq_error += fused_error * fused_error;
  }

  const auto plain_uplink = plain.uplink_traffic();
  const auto fused_uplink = fused.uplink_traffic();
  const FusionStats stats = fused.fusion_stats();
  const double plain_rmse =
      std::sqrt(plain_sq_error / static_cast<double>(kTicks));
  const double fused_rmse =
      std::sqrt(fused_sq_error / static_cast<double>(kTicks));

  std::printf("eight sensors, %lld ticks, delta %.1f degC\n",
              static_cast<long long>(kTicks), kDelta);
  std::printf("  per-source baseline: %lld msgs, %lld uplink bytes, "
              "rmse %.3f\n",
              static_cast<long long>(plain_uplink.messages),
              static_cast<long long>(plain_uplink.bytes), plain_rmse);
  std::printf("  fused group:         %lld msgs, %lld uplink bytes, "
              "rmse %.3f\n",
              static_cast<long long>(fused_uplink.messages),
              static_cast<long long>(fused_uplink.bytes), fused_rmse);
  std::printf("  fused downlink:      %lld broadcast bytes "
              "(the price of re-locking %lld mirrors)\n",
              static_cast<long long>(stats.broadcast_bytes),
              static_cast<long long>(stats.members));
  std::printf("  uplink reduction:    %.2fx\n",
              static_cast<double>(plain_uplink.bytes) /
                  static_cast<double>(fused_uplink.bytes));

  // 4. Self-check (the ctest smoke test): redundancy must buy at least
  //    half the uplink back, the group must have genuinely suppressed
  //    cross-source (not just sent less data), and the fused answer
  //    must track the room.
  if (fused_uplink.bytes * 2 >= plain_uplink.bytes) {
    std::fprintf(stderr, "FAIL: fused uplink is not below half the "
                         "per-source baseline\n");
    return 1;
  }
  if (stats.suppressed <= stats.updates_applied) {
    std::fprintf(stderr, "FAIL: cross-source suppression never won\n");
    return 1;
  }
  if (fused_rmse > 1.0) {
    std::fprintf(stderr, "FAIL: fused answer lost the room "
                         "(rmse %.3f degC)\n", fused_rmse);
    return 1;
  }
  if (!fused.VerifyFusedConsistency().ok()) {
    std::fprintf(stderr, "FAIL: mirror consistency violated\n");
    return 1;
  }
  std::printf("OK\n");
  return 0;
}
