#include "models/model_factory.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/time_series.h"
#include "core/dual_link.h"
#include "core/predictor.h"

namespace dkf {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Every ModelNoise that sets one variance to NaN or +inf.
std::vector<ModelNoise> NonFiniteNoises() {
  std::vector<ModelNoise> noises;
  for (double bad : {kNaN, kInf}) {
    for (double ModelNoise::*field :
         {&ModelNoise::process_variance, &ModelNoise::measurement_variance,
          &ModelNoise::initial_variance}) {
      ModelNoise noise;
      noise.*field = bad;
      noises.push_back(noise);
    }
  }
  return noises;
}

TEST(ConstantModelTest, MatchesPaperEquation15) {
  auto model_or = MakeConstantModel(2, ModelNoise{});
  ASSERT_TRUE(model_or.ok());
  const StateModel& model = model_or.value();
  EXPECT_EQ(model.name, "constant");
  EXPECT_EQ(model.measurement_dim, 2u);
  EXPECT_LT(model.options.transition.MaxAbsDiff(Matrix::Identity(2)), 1e-15);
  EXPECT_LT(model.options.measurement.MaxAbsDiff(Matrix::Identity(2)),
            1e-15);
  EXPECT_DOUBLE_EQ(model.options.process_noise(0, 0), 0.05);
  EXPECT_DOUBLE_EQ(model.options.measurement_noise(1, 1), 0.05);
}

TEST(ConstantModelTest, Validation) {
  EXPECT_FALSE(MakeConstantModel(0, ModelNoise{}).ok());
  ModelNoise noise;
  noise.measurement_variance = 0.0;
  EXPECT_FALSE(MakeConstantModel(1, noise).ok());
  noise = ModelNoise{};
  noise.initial_variance = -1.0;
  EXPECT_FALSE(MakeConstantModel(1, noise).ok());
  for (const ModelNoise& bad : NonFiniteNoises()) {
    EXPECT_FALSE(MakeConstantModel(1, bad).ok());
  }
}

TEST(LinearModelTest, MatchesPaperEquations13To16) {
  const double dt = 0.1;
  auto model_or = MakeLinearModel(2, dt, ModelNoise{});
  ASSERT_TRUE(model_or.ok());
  const StateModel& model = model_or.value();
  EXPECT_EQ(model.name, "linear");
  // State layout [x, xdot, y, ydot]; paper eq. 14.
  const Matrix expected_phi{{1.0, dt, 0.0, 0.0},
                            {0.0, 1.0, 0.0, 0.0},
                            {0.0, 0.0, 1.0, dt},
                            {0.0, 0.0, 0.0, 1.0}};
  EXPECT_LT(model.options.transition.MaxAbsDiff(expected_phi), 1e-15);
  // Paper eq. 16.
  const Matrix expected_h{{1.0, 0.0, 0.0, 0.0}, {0.0, 0.0, 1.0, 0.0}};
  EXPECT_LT(model.options.measurement.MaxAbsDiff(expected_h), 1e-15);
}

TEST(LinearModelTest, OneAxisVariant) {
  auto model_or = MakeLinearModel(1, 1.0, ModelNoise{});
  ASSERT_TRUE(model_or.ok());
  EXPECT_EQ(model_or.value().options.initial_state.size(), 2u);
  EXPECT_EQ(model_or.value().measurement_dim, 1u);
}

TEST(LinearModelTest, Validation) {
  EXPECT_FALSE(MakeLinearModel(0, 1.0, ModelNoise{}).ok());
  EXPECT_FALSE(MakeLinearModel(1, 0.0, ModelNoise{}).ok());
  EXPECT_FALSE(MakeLinearModel(1, -1.0, ModelNoise{}).ok());
  for (const ModelNoise& bad : NonFiniteNoises()) {
    EXPECT_FALSE(MakeLinearModel(1, 1.0, bad).ok());
    EXPECT_FALSE(MakePolynomialModel(1, 2, 1.0, bad).ok());
  }
}

TEST(PolynomialModelTest, JerkModelTaylorCoefficients) {
  // §4.1: P_k = P + P' dt + P'' dt^2/2 + P''' dt^3/6.
  const double dt = 2.0;
  auto model_or = MakePolynomialModel(1, 3, dt, ModelNoise{});
  ASSERT_TRUE(model_or.ok());
  const Matrix& phi = model_or.value().options.transition;
  ASSERT_EQ(phi.rows(), 4u);
  EXPECT_DOUBLE_EQ(phi(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(phi(0, 1), dt);
  EXPECT_DOUBLE_EQ(phi(0, 2), dt * dt / 2.0);
  EXPECT_DOUBLE_EQ(phi(0, 3), dt * dt * dt / 6.0);
  EXPECT_DOUBLE_EQ(phi(1, 2), dt);
  EXPECT_DOUBLE_EQ(phi(3, 3), 1.0);
  EXPECT_DOUBLE_EQ(phi(3, 0), 0.0);
}

TEST(PolynomialModelTest, TwoAxesBlockDiagonal) {
  auto model_or = MakePolynomialModel(2, 2, 1.0, ModelNoise{});
  ASSERT_TRUE(model_or.ok());
  const Matrix& phi = model_or.value().options.transition;
  ASSERT_EQ(phi.rows(), 6u);
  // Cross-axis block must be zero.
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 3; c < 6; ++c) {
      EXPECT_DOUBLE_EQ(phi(r, c), 0.0);
      EXPECT_DOUBLE_EQ(phi(c, r), 0.0);
    }
  }
  // H picks positions of both axes.
  const Matrix& h = model_or.value().options.measurement;
  EXPECT_DOUBLE_EQ(h(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(h(1, 3), 1.0);
}

TEST(PolynomialModelTest, OrderValidated) {
  EXPECT_FALSE(MakePolynomialModel(1, 0, 1.0, ModelNoise{}).ok());
  EXPECT_FALSE(MakePolynomialModel(1, 5, 1.0, ModelNoise{}).ok());
  EXPECT_TRUE(MakePolynomialModel(1, 4, 1.0, ModelNoise{}).ok());
}

TEST(SinusoidalModelTest, MatchesPaperEquations17And18) {
  const double omega = 2.0 * M_PI / 24.0;
  const double theta = M_PI;
  const double gamma = 1.0;
  auto model_or = MakeSinusoidalModel(omega, theta, gamma, ModelNoise{});
  ASSERT_TRUE(model_or.ok());
  const StateModel& model = model_or.value();
  ASSERT_TRUE(static_cast<bool>(model.options.transition_fn));
  const Matrix phi_at_3 = model.options.transition_fn(3);
  EXPECT_DOUBLE_EQ(phi_at_3(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(phi_at_3(0, 1), gamma * std::cos(omega * 3.0 + theta));
  EXPECT_DOUBLE_EQ(phi_at_3(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(phi_at_3(1, 1), 1.0);
  // Eq. 18: H = [1 0].
  EXPECT_DOUBLE_EQ(model.options.measurement(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(model.options.measurement(0, 1), 0.0);
}

TEST(SinusoidalModelTest, FilterLearnsAmplitudeOfModelGeneratedStream) {
  // Generate the stream with the model's own recurrence
  //   x_k = x_{k-1} + cos(omega (k-1) + theta) * s_true
  // (the filter's transition_fn is evaluated at the pre-increment step
  // index); the filter must recover s_true and then coast accurately.
  const double omega = 0.25;
  const double theta = 0.4;
  const double s_true = 2.5;
  ModelNoise noise;
  noise.process_variance = 1e-8;
  noise.measurement_variance = 1e-4;
  auto model_or = MakeSinusoidalModel(omega, theta, 1.0, noise);
  ASSERT_TRUE(model_or.ok());
  auto filter_or = model_or.value().MakeFilter();
  ASSERT_TRUE(filter_or.ok());
  KalmanFilter filter = std::move(filter_or).value();

  double signal = 0.0;
  for (int64_t k = 0; k < 300; ++k) {
    signal += std::cos(omega * static_cast<double>(k) + theta) * s_true;
    ASSERT_TRUE(filter.Predict().ok());
    ASSERT_TRUE(filter.Correct(Vector{signal}).ok());
  }
  EXPECT_NEAR(filter.state()[1], s_true, 0.01);
  // Coast 8 steps and compare against the recurrence.
  double max_err = 0.0;
  for (int64_t k = 300; k < 308; ++k) {
    signal += std::cos(omega * static_cast<double>(k) + theta) * s_true;
    ASSERT_TRUE(filter.Predict().ok());
    max_err = std::max(
        max_err, std::fabs(filter.PredictedMeasurement()[0] - signal));
  }
  EXPECT_LT(max_err, 0.1);
}

TEST(SinusoidalModelTest, FilterTracksTrueSinusoidApproximately) {
  // On a genuine sampled sinusoid 10 sin(omega k + theta) the model's
  // discrete regressor is phase-shifted by omega/2, so tracking is
  // approximate but close for small omega.
  const double omega = 0.25;
  const double theta = 0.0;
  ModelNoise noise;
  noise.process_variance = 1e-6;
  noise.measurement_variance = 1e-2;
  auto model_or = MakeSinusoidalModel(omega, theta, 1.0, noise);
  ASSERT_TRUE(model_or.ok());
  auto filter_or = model_or.value().MakeFilter();
  ASSERT_TRUE(filter_or.ok());
  KalmanFilter filter = std::move(filter_or).value();

  auto signal = [&](int64_t k) {
    return 10.0 * std::sin(omega * static_cast<double>(k) + theta);
  };
  double max_err = 0.0;
  for (int64_t k = 1; k <= 300; ++k) {
    ASSERT_TRUE(filter.Predict().ok());
    if (k > 100) {
      max_err = std::max(max_err, std::fabs(filter.PredictedMeasurement()[0] -
                                            signal(k)));
    }
    ASSERT_TRUE(filter.Correct(Vector{signal(k)}).ok());
  }
  // One-step prediction error stays well under the amplitude.
  EXPECT_LT(max_err, 2.0);
}

TEST(SinusoidalModelTest, Validation) {
  EXPECT_FALSE(MakeSinusoidalModel(0.0, 0.0, 1.0, ModelNoise{}).ok());
  ModelNoise bad;
  bad.measurement_variance = -1.0;
  EXPECT_FALSE(MakeSinusoidalModel(1.0, 0.0, 1.0, bad).ok());
  for (const ModelNoise& noise : NonFiniteNoises()) {
    EXPECT_FALSE(MakeSinusoidalModel(1.0, 0.0, 1.0, noise).ok());
  }
}

TEST(SmoothingModelTest, SingleStateWithFAsProcessNoise) {
  auto model_or = MakeSmoothingModel(1e-7, 1.0);
  ASSERT_TRUE(model_or.ok());
  const StateModel& model = model_or.value();
  EXPECT_EQ(model.options.initial_state.size(), 1u);
  EXPECT_DOUBLE_EQ(model.options.process_noise(0, 0), 1e-7);
  EXPECT_DOUBLE_EQ(model.options.transition(0, 0), 1.0);
}

TEST(SmoothingModelTest, Validation) {
  EXPECT_FALSE(MakeSmoothingModel(0.0, 1.0).ok());
  EXPECT_FALSE(MakeSmoothingModel(1e-7, 0.0).ok());
  for (double bad : {kNaN, kInf}) {
    EXPECT_FALSE(MakeSmoothingModel(bad, 1.0).ok());
    EXPECT_FALSE(MakeSmoothingModel(1e-7, bad).ok());
  }
}

TEST(MeanRevertingModelTest, Validation) {
  EXPECT_FALSE(MakeMeanRevertingModel(0.0, ModelNoise{}).ok());
  EXPECT_FALSE(MakeMeanRevertingModel(1.0, ModelNoise{}).ok());
  EXPECT_FALSE(MakeMeanRevertingModel(-0.5, ModelNoise{}).ok());
  EXPECT_TRUE(MakeMeanRevertingModel(0.9, ModelNoise{}).ok());
  for (const ModelNoise& bad : NonFiniteNoises()) {
    EXPECT_FALSE(MakeMeanRevertingModel(0.9, bad).ok());
  }
}

TEST(MeanRevertingModelTest, TransitionStructure) {
  auto model_or = MakeMeanRevertingModel(0.8, ModelNoise{});
  ASSERT_TRUE(model_or.ok());
  const Matrix& phi = model_or.value().options.transition;
  EXPECT_DOUBLE_EQ(phi(0, 0), 0.8);
  EXPECT_DOUBLE_EQ(phi(0, 1), 0.2);
  EXPECT_DOUBLE_EQ(phi(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(phi(1, 1), 1.0);
}

TEST(MeanRevertingModelTest, LearnsTheMeanAndDecaysToIt) {
  // Feed an AR(1) process around mean 40; after convergence the mu state
  // should sit near 40, and coasting should decay the prediction toward
  // it (instead of holding the last value like the constant model).
  ModelNoise noise;
  noise.process_variance = 1.0;
  noise.measurement_variance = 1.0;
  const double rho = 0.9;
  auto filter_or = MakeMeanRevertingModel(rho, noise).value().MakeFilter();
  ASSERT_TRUE(filter_or.ok());
  KalmanFilter filter = std::move(filter_or).value();

  Rng rng(6);
  double x = 40.0;
  for (int i = 0; i < 2000; ++i) {
    x = 40.0 + rho * (x - 40.0) + rng.Gaussian(0.0, 1.0);
    ASSERT_TRUE(filter.Predict().ok());
    ASSERT_TRUE(filter.Correct(Vector{x}).ok());
  }
  EXPECT_NEAR(filter.state()[1], 40.0, 2.0);

  // Push the estimate onto a burst, then coast: the prediction must
  // decay back toward the learned mean.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(filter.Predict().ok());
    ASSERT_TRUE(filter.Correct(Vector{80.0}).ok());
  }
  const double at_burst = filter.PredictedMeasurement()[0];
  for (int i = 0; i < 40; ++i) ASSERT_TRUE(filter.Predict().ok());
  const double after_coast = filter.PredictedMeasurement()[0];
  EXPECT_GT(at_burst, 60.0);
  EXPECT_LT(after_coast, 50.0);
  EXPECT_GT(after_coast, 30.0);
}

TEST(MeanRevertingModelTest, BeatsConstantModelOnMeanRevertingStream) {
  // Suppression comparison on a bursty mean-reverting stream: the
  // reverting model saves the "come-down" updates after each burst.
  ModelNoise noise;
  noise.process_variance = 1.0;
  noise.measurement_variance = 1.0;
  ModelNoise adopt;
  adopt.process_variance = 100.0;
  adopt.measurement_variance = 1.0;
  auto reverting = KalmanPredictor::Create(
                       MakeMeanRevertingModel(0.95, noise).value())
                       .value();
  auto constant =
      KalmanPredictor::Create(MakeConstantModel(1, adopt).value()).value();

  Rng rng(7);
  TimeSeries stream(1);
  double x = 100.0;
  for (int i = 0; i < 4000; ++i) {
    x = 100.0 + 0.95 * (x - 100.0) + rng.Gaussian(0.0, 1.0);
    if (i % 400 == 0) x += 60.0;  // periodic bursts
    ASSERT_TRUE(stream.Append(static_cast<double>(i), x).ok());
  }
  DualLinkOptions options;
  options.delta = 8.0;
  auto reverting_link = DualLink::Create(reverting, options).value();
  auto constant_link = DualLink::Create(constant, options).value();
  for (size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(reverting_link.Step(Vector{stream.value(i)}).ok());
    ASSERT_TRUE(constant_link.Step(Vector{stream.value(i)}).ok());
  }
  EXPECT_LT(reverting_link.stats().updates_sent,
            constant_link.stats().updates_sent);
}

TEST(ModelFactoryTest, AllModelsProduceValidFilters) {
  const ModelNoise noise;
  auto constant = MakeConstantModel(2, noise);
  auto linear = MakeLinearModel(2, 0.1, noise);
  auto poly = MakePolynomialModel(2, 3, 0.1, noise);
  auto sinusoidal = MakeSinusoidalModel(0.3, 0.0, 1.0, noise);
  auto smoothing = MakeSmoothingModel(1e-5, 1.0);
  for (const auto* model_or :
       {&constant, &linear, &poly, &sinusoidal, &smoothing}) {
    ASSERT_TRUE(model_or->ok());
    EXPECT_TRUE(model_or->value().MakeFilter().ok());
  }
}

}  // namespace
}  // namespace dkf
