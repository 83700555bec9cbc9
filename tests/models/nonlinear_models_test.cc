#include "models/nonlinear_models.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

namespace dkf {
namespace {

TEST(CoordinatedTurnTest, Validation) {
  EXPECT_FALSE(MakeCoordinatedTurnModel(0.0, NonlinearModelNoise{}).ok());
  NonlinearModelNoise bad;
  bad.measurement_variance = 0.0;
  EXPECT_FALSE(MakeCoordinatedTurnModel(0.1, bad).ok());
  for (double value :
       {std::nan(""), std::numeric_limits<double>::infinity()}) {
    for (double NonlinearModelNoise::*field :
         {&NonlinearModelNoise::process_variance,
          &NonlinearModelNoise::measurement_variance,
          &NonlinearModelNoise::initial_variance}) {
      NonlinearModelNoise noise;
      noise.*field = value;
      EXPECT_FALSE(MakeCoordinatedTurnModel(0.1, noise).ok());
    }
  }
}

TEST(CoordinatedTurnTest, TransitionMatchesKinematics) {
  auto options_or = MakeCoordinatedTurnModel(0.5, NonlinearModelNoise{});
  ASSERT_TRUE(options_or.ok());
  const auto& options = options_or.value();
  // State [x, y, speed, heading, turn_rate].
  const Vector x{1.0, 2.0, 4.0, M_PI / 2.0, 0.2};
  const Vector next = options.transition(x, 0);
  EXPECT_NEAR(next[0], 1.0 + 4.0 * std::cos(M_PI / 2.0) * 0.5, 1e-12);
  EXPECT_NEAR(next[1], 2.0 + 4.0 * 0.5, 1e-12);  // sin(pi/2) = 1
  EXPECT_DOUBLE_EQ(next[2], 4.0);
  EXPECT_NEAR(next[3], M_PI / 2.0 + 0.1, 1e-12);
  EXPECT_DOUBLE_EQ(next[4], 0.2);
}

TEST(CoordinatedTurnTest, JacobianMatchesFiniteDifferences) {
  auto options_or = MakeCoordinatedTurnModel(0.3, NonlinearModelNoise{});
  ASSERT_TRUE(options_or.ok());
  const auto& options = options_or.value();
  const Vector x{0.5, -1.0, 3.0, 0.7, -0.1};
  const Matrix analytic = options.transition_jacobian(x, 0);
  const double eps = 1e-7;
  for (size_t j = 0; j < 5; ++j) {
    Vector plus = x;
    Vector minus = x;
    plus[j] += eps;
    minus[j] -= eps;
    const Vector diff =
        (options.transition(plus, 0) - options.transition(minus, 0)) *
        (1.0 / (2.0 * eps));
    for (size_t i = 0; i < 5; ++i) {
      EXPECT_NEAR(analytic(i, j), diff[i], 1e-5)
          << "entry (" << i << ", " << j << ")";
    }
  }
}

TEST(CoordinatedTurnTest, MeasurementPicksPosition) {
  auto options_or = MakeCoordinatedTurnModel(0.1, NonlinearModelNoise{});
  ASSERT_TRUE(options_or.ok());
  const auto& options = options_or.value();
  const Vector x{3.0, 4.0, 1.0, 0.0, 0.0};
  const Vector z = options.measurement(x);
  ASSERT_EQ(z.size(), 2u);
  EXPECT_DOUBLE_EQ(z[0], 3.0);
  EXPECT_DOUBLE_EQ(z[1], 4.0);
  const Matrix h = options.measurement_jacobian(x);
  EXPECT_EQ(h.rows(), 2u);
  EXPECT_EQ(h.cols(), 5u);
  EXPECT_DOUBLE_EQ(h(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(h(1, 1), 1.0);
}

}  // namespace
}  // namespace dkf
