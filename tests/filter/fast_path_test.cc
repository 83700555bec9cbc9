#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "filter/adaptive_noise.h"
#include "filter/kalman_filter.h"
#include "linalg/matrix.h"
#include "models/model_factory.h"
#include "obs/trace_sink.h"
#include "support/counting_new.h"

namespace dkf {
namespace {

// Tests for the steady-state fast path: once the post-Correct covariance
// settles into an exact repeating cycle, the filter freezes the gain and
// covariance and skips the Riccati/Joseph arithmetic. The contract is that
// with the default exact tolerance the armed filter is *bit-identical* to
// one that never arms — StateEquals (exact ==) must hold tick for tick.

Vector MeasurementAt(size_t dim, int t) {
  Vector z(dim);
  for (size_t i = 0; i < dim; ++i) {
    z[i] = 20.0 * std::sin(0.1 * t + static_cast<double>(i));
  }
  return z;
}

std::pair<KalmanFilter, KalmanFilter> MakeFastAndSlow(
    const KalmanFilterOptions& options) {
  auto fast_or = KalmanFilter::Create(options);
  KalmanFilterOptions disabled = options;
  disabled.steady_state_fast_path = false;
  auto slow_or = KalmanFilter::Create(disabled);
  EXPECT_TRUE(fast_or.ok() && slow_or.ok());
  return {std::move(fast_or).value(), std::move(slow_or).value()};
}

TEST(FastPathTest, ArmsOnConstantModelAndStaysBitExact) {
  ModelNoise noise;
  auto model = MakeConstantModel(1, noise).value();
  auto [fast, slow] = MakeFastAndSlow(model.options);
  int armed_at = -1;
  for (int t = 0; t < 500; ++t) {
    ASSERT_TRUE(fast.Predict().ok());
    ASSERT_TRUE(slow.Predict().ok());
    const Vector z = MeasurementAt(model.measurement_dim, t);
    ASSERT_TRUE(fast.Correct(z).ok());
    ASSERT_TRUE(slow.Correct(z).ok());
    if (armed_at < 0 && fast.steady_state_armed()) armed_at = t;
    ASSERT_TRUE(fast.StateEquals(slow)) << "diverged at tick " << t;
  }
  // The arming must actually happen for this test to mean anything.
  EXPECT_GE(armed_at, 0);
  EXPECT_TRUE(fast.steady_state_armed());
  EXPECT_FALSE(slow.steady_state_armed());
}

TEST(FastPathTest, ArmsOnPeriodTwoCovarianceCycle) {
  // Multi-axis linear models settle into an exact period-2 covariance
  // limit cycle (P(t) == P(t-2) bitwise, != P(t-1)) rather than a fixed
  // point; the fast path must detect and freeze the two-phase cycle.
  ModelNoise noise;
  auto model = MakeLinearModel(2, 1.0, noise).value();  // 4-state model
  auto [fast, slow] = MakeFastAndSlow(model.options);
  int armed_at = -1;
  for (int t = 0; t < 500; ++t) {
    ASSERT_TRUE(fast.Predict().ok());
    ASSERT_TRUE(slow.Predict().ok());
    const Vector z = MeasurementAt(model.measurement_dim, t);
    ASSERT_TRUE(fast.Correct(z).ok());
    ASSERT_TRUE(slow.Correct(z).ok());
    if (armed_at < 0 && fast.steady_state_armed()) armed_at = t;
    ASSERT_TRUE(fast.StateEquals(slow)) << "diverged at tick " << t;
  }
  EXPECT_GE(armed_at, 0);
  EXPECT_TRUE(fast.steady_state_armed());
}

TEST(FastPathTest, CoastingDisarmsAndStaysBitExact) {
  // Suppressed updates (the DKF protocol's whole point) show up as
  // Predict-only ticks. They move the covariance off the frozen cycle, so
  // the fast path must disarm — and the coasting filter must still match
  // a never-armed twin bit for bit.
  ModelNoise noise;
  auto model = MakeConstantModel(2, noise).value();
  auto [fast, slow] = MakeFastAndSlow(model.options);
  bool was_armed = false;
  for (int t = 0; t < 400; ++t) {
    ASSERT_TRUE(fast.Predict().ok());
    ASSERT_TRUE(slow.Predict().ok());
    if (fast.steady_state_armed()) was_armed = true;
    // Suppress every fourth measurement once past the warmup.
    if (t > 100 && t % 4 == 0) continue;
    const Vector z = MeasurementAt(model.measurement_dim, t);
    ASSERT_TRUE(fast.Correct(z).ok());
    ASSERT_TRUE(slow.Correct(z).ok());
    ASSERT_TRUE(fast.StateEquals(slow)) << "diverged at tick " << t;
  }
  EXPECT_TRUE(was_armed);
}

TEST(FastPathTest, NoiseReconfigurationDisarmsThenRearms) {
  ModelNoise noise;
  auto model = MakeConstantModel(1, noise).value();
  auto [fast, slow] = MakeFastAndSlow(model.options);
  auto run = [&](int from, int to) {
    for (int t = from; t < to; ++t) {
      ASSERT_TRUE(fast.Predict().ok());
      ASSERT_TRUE(slow.Predict().ok());
      const Vector z = MeasurementAt(model.measurement_dim, t);
      ASSERT_TRUE(fast.Correct(z).ok());
      ASSERT_TRUE(slow.Correct(z).ok());
      ASSERT_TRUE(fast.StateEquals(slow)) << "diverged at tick " << t;
    }
  };
  run(0, 200);
  ASSERT_TRUE(fast.steady_state_armed());
  // The adaptive noise estimator path: replacing Q moves the Riccati
  // fixed point, so the frozen gain is stale and must be dropped.
  Matrix q = fast.process_noise();
  q(0, 0) *= 2.0;
  ASSERT_TRUE(fast.set_process_noise(q).ok());
  ASSERT_TRUE(slow.set_process_noise(q).ok());
  EXPECT_FALSE(fast.steady_state_armed());
  run(200, 400);
  // Re-converged on the new fixed point.
  EXPECT_TRUE(fast.steady_state_armed());
}

TEST(FastPathTest, ResetDisarms) {
  ModelNoise noise;
  auto model = MakeConstantModel(1, noise).value();
  auto fast = KalmanFilter::Create(model.options).value();
  for (int t = 0; t < 100; ++t) {
    ASSERT_TRUE(fast.Predict().ok());
    ASSERT_TRUE(fast.Correct(MeasurementAt(1, t)).ok());
  }
  ASSERT_TRUE(fast.steady_state_armed());
  fast.Reset();
  EXPECT_FALSE(fast.steady_state_armed());
  EXPECT_EQ(fast.step(), 0);
}

TEST(FastPathTest, NeverArmsWithTimeVaryingTransition) {
  ModelNoise noise;
  auto model = MakeSinusoidalModel(0.3, 0.0, 1.0, noise).value();
  ASSERT_TRUE(model.options.transition_fn != nullptr);
  auto fast = KalmanFilter::Create(model.options).value();
  for (int t = 0; t < 300; ++t) {
    ASSERT_TRUE(fast.Predict().ok());
    ASSERT_TRUE(fast.Correct(MeasurementAt(model.measurement_dim, t)).ok());
    ASSERT_FALSE(fast.steady_state_armed());
  }
}

TEST(FastPathTest, DualLinkLockStepAcrossReconfiguration) {
  // The mirror-consistency contract of the DKF protocol: KF_s (server) and
  // KF_m (source) run identical code on identical inputs and must stay
  // bit-identical — including while the fast path arms, runs armed, and is
  // disarmed by a mid-run reconfiguration on both ends.
  ModelNoise noise;
  auto model = MakeLinearModel(1, 1.0, noise).value();
  auto server = KalmanFilter::Create(model.options).value();
  auto mirror = KalmanFilter::Create(model.options).value();
  bool armed_before_reconfig = false;
  bool armed_after_reconfig = false;
  for (int t = 0; t < 600; ++t) {
    ASSERT_TRUE(server.Predict().ok());
    ASSERT_TRUE(mirror.Predict().ok());
    const Vector z = MeasurementAt(model.measurement_dim, t);
    ASSERT_TRUE(server.Correct(z).ok());
    ASSERT_TRUE(mirror.Correct(z).ok());
    ASSERT_TRUE(server.StateEquals(mirror)) << "mirror broke at tick " << t;
    if (t < 300 && server.steady_state_armed()) armed_before_reconfig = true;
    if (t > 300 && server.steady_state_armed()) armed_after_reconfig = true;
    if (t == 300) {
      Matrix q = server.process_noise();
      q(0, 0) *= 4.0;
      ASSERT_TRUE(server.set_process_noise(q).ok());
      ASSERT_TRUE(mirror.set_process_noise(q).ok());
    }
  }
  EXPECT_TRUE(armed_before_reconfig);
  EXPECT_TRUE(armed_after_reconfig);
}

TEST(FastPathTest, SteadyTicksAreAllocationFreeAtInlineDims) {
  // Every inline state dimension 1-6: constant models (n = m) and
  // constant-velocity linear models (n = 2m). Once the fast path has
  // armed, a Predict+Correct cycle allocates nothing — bare, with a
  // trace sink wired, and with the adaptive noise servo in the loop.
  constexpr int kWarmup = 2000;
  constexpr int kWindow = 1000;
  ModelNoise noise;
  std::vector<StateModel> models;
  for (size_t d = 1; d <= 6; ++d) {
    models.push_back(MakeConstantModel(d, noise).value());
  }
  for (size_t axes = 1; axes <= 3; ++axes) {
    models.push_back(MakeLinearModel(axes, 1.0, noise).value());
  }
  for (const StateModel& model : models) {
    SCOPED_TRACE("state_dim=" +
                 std::to_string(model.options.initial_state.size()) +
                 " measurement_dim=" + std::to_string(model.measurement_dim));
    Vector z(model.measurement_dim);
    int step = 0;
    // The next measurement, written in place: a fresh Vector per tick
    // would be the test's allocation, not the filter's.
    auto next_z = [&z, &step] {
      for (size_t i = 0; i < z.size(); ++i) {
        z[i] = 20.0 * std::sin(0.1 * step + static_cast<double>(i));
      }
      return step++;
    };
    KalmanFilter filter = KalmanFilter::Create(model.options).value();
    auto tick = [&] {
      next_z();
      ASSERT_TRUE(filter.Predict().ok());
      ASSERT_TRUE(filter.Correct(z).ok());
    };
    for (int t = 0; t < kWarmup; ++t) tick();
    EXPECT_TRUE(filter.steady_state_armed());
    EXPECT_EQ(AllocationsOver(kWindow, tick), 0u);

    ObsOptions obs;
    obs.ring_capacity = 1 << 8;
    TraceSink sink(obs);
    filter.set_trace(&sink, /*source_id=*/1, TraceActor::kSourceFilter);
    EXPECT_EQ(AllocationsOver(kWindow, tick), 0u) << "trace sink wired";
    filter.set_trace(nullptr, 1, TraceActor::kSourceFilter);

    AdaptiveNoiseConfig servo;
    servo.enabled = true;
    servo.warmup_corrections = 4;
    NoiseAdapter adapter = NoiseAdapter::Create(servo, model).value();
    KalmanFilter adaptive = KalmanFilter::Create(model.options).value();
    step = 0;
    auto adaptive_tick = [&] {
      const int t = next_z();
      ASSERT_TRUE(adaptive.Predict().ok());
      ASSERT_TRUE(adapter.OnCorrection(adaptive, z, t).ok());
      ASSERT_TRUE(adaptive.Correct(z).ok());
      ASSERT_TRUE(adapter.InstallInto(&adaptive).ok());
    };
    for (int t = 0; t < kWarmup; ++t) adaptive_tick();
    EXPECT_EQ(AllocationsOver(kWindow, adaptive_tick), 0u) << "servo on";
  }
}

TEST(FastPathTest, NegativeToleranceDisablesTracking) {
  ModelNoise noise;
  auto model = MakeConstantModel(1, noise).value();
  KalmanFilterOptions options = model.options;
  options.steady_state_tolerance = -1.0;
  auto filter = KalmanFilter::Create(options).value();
  for (int t = 0; t < 200; ++t) {
    ASSERT_TRUE(filter.Predict().ok());
    ASSERT_TRUE(filter.Correct(MeasurementAt(1, t)).ok());
  }
  EXPECT_FALSE(filter.steady_state_armed());
}

}  // namespace
}  // namespace dkf
