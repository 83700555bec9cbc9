#include "filter/kalman_filter.h"

#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace dkf {
namespace {

/// A 1-D constant-velocity filter used across the tests.
KalmanFilterOptions CvOptions(double dt = 1.0, double q = 0.01,
                              double r = 0.1) {
  KalmanFilterOptions options;
  options.transition = Matrix{{1.0, dt}, {0.0, 1.0}};
  options.measurement = Matrix{{1.0, 0.0}};
  options.process_noise = Matrix::ScaledIdentity(2, q);
  options.measurement_noise = Matrix{{r}};
  options.initial_state = Vector(2);
  options.initial_covariance = Matrix::ScaledIdentity(2, 100.0);
  return options;
}

TEST(KalmanFilterTest, CreateValidatesDimensions) {
  KalmanFilterOptions options = CvOptions();
  options.measurement = Matrix{{1.0, 0.0, 0.0}};  // wrong cols
  EXPECT_FALSE(KalmanFilter::Create(options).ok());

  options = CvOptions();
  options.process_noise = Matrix::Identity(3);
  EXPECT_FALSE(KalmanFilter::Create(options).ok());

  options = CvOptions();
  options.measurement_noise = Matrix::Identity(2);
  EXPECT_FALSE(KalmanFilter::Create(options).ok());

  options = CvOptions();
  options.initial_state = Vector();
  EXPECT_FALSE(KalmanFilter::Create(options).ok());

  options = CvOptions();
  options.initial_covariance = Matrix::Identity(3);
  EXPECT_FALSE(KalmanFilter::Create(options).ok());

  EXPECT_TRUE(KalmanFilter::Create(CvOptions()).ok());
}

TEST(KalmanFilterTest, CreateRejectsNonFiniteInit) {
  KalmanFilterOptions options = CvOptions();
  options.initial_state = Vector{std::nan(""), 0.0};
  EXPECT_FALSE(KalmanFilter::Create(options).ok());
}

TEST(KalmanFilterTest, CreateRejectsNonFiniteCoefficients) {
  // A NaN or infinite phi, H, Q or R would diverge the first predict or
  // correct and wedge every later tick, so Create refuses it.
  for (double bad : {std::nan(""), std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    KalmanFilterOptions options = CvOptions();
    options.transition(0, 1) = bad;
    EXPECT_FALSE(KalmanFilter::Create(options).ok()) << "phi " << bad;

    options = CvOptions();
    options.measurement(0, 0) = bad;
    EXPECT_FALSE(KalmanFilter::Create(options).ok()) << "H " << bad;

    options = CvOptions(1.0, bad);
    EXPECT_FALSE(KalmanFilter::Create(options).ok()) << "Q " << bad;

    options = CvOptions(1.0, 0.01, bad);
    EXPECT_FALSE(KalmanFilter::Create(options).ok()) << "R " << bad;
  }
  // A time-varying transition ignores the constant one.
  KalmanFilterOptions options = CvOptions();
  options.transition(0, 1) = std::nan("");
  options.transition_fn = [](int64_t) {
    return Matrix{{1.0, 1.0}, {0.0, 1.0}};
  };
  EXPECT_TRUE(KalmanFilter::Create(options).ok());
}

TEST(KalmanFilterTest, PredictPropagatesState) {
  auto filter_or = KalmanFilter::Create(CvOptions(0.5));
  ASSERT_TRUE(filter_or.ok());
  KalmanFilter filter = std::move(filter_or).value();
  ASSERT_TRUE(filter.Correct(Vector{0.0}).ok());

  // Force a known state and check phi x.
  ASSERT_TRUE(filter.Predict().ok());
  EXPECT_EQ(filter.step(), 1);
}

TEST(KalmanFilterTest, ConvergesToConstantSignal) {
  auto filter_or = KalmanFilter::Create(CvOptions());
  ASSERT_TRUE(filter_or.ok());
  KalmanFilter filter = std::move(filter_or).value();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(filter.Predict().ok());
    ASSERT_TRUE(filter.Correct(Vector{5.0}).ok());
  }
  EXPECT_NEAR(filter.state()[0], 5.0, 1e-3);
  EXPECT_NEAR(filter.state()[1], 0.0, 1e-3);
}

TEST(KalmanFilterTest, LearnsLinearTrendVelocity) {
  // Positions 0, 2, 4, ...: the filter should learn velocity 2 and then
  // predict ahead correctly.
  auto filter_or = KalmanFilter::Create(CvOptions());
  ASSERT_TRUE(filter_or.ok());
  KalmanFilter filter = std::move(filter_or).value();
  double pos = 0.0;
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(filter.Predict().ok());
    ASSERT_TRUE(filter.Correct(Vector{pos}).ok());
    pos += 2.0;
  }
  EXPECT_NEAR(filter.state()[1], 2.0, 0.05);
  // Coast three steps: prediction should track the line within the noise.
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(filter.Predict().ok());
  EXPECT_NEAR(filter.PredictedMeasurement()[0], pos + 2.0 * 2.0, 0.5);
}

TEST(KalmanFilterTest, CovarianceShrinksWithMeasurements) {
  auto filter_or = KalmanFilter::Create(CvOptions());
  ASSERT_TRUE(filter_or.ok());
  KalmanFilter filter = std::move(filter_or).value();
  const double initial_var = filter.covariance()(0, 0);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(filter.Predict().ok());
    ASSERT_TRUE(filter.Correct(Vector{1.0}).ok());
  }
  EXPECT_LT(filter.covariance()(0, 0), initial_var / 100.0);
}

TEST(KalmanFilterTest, CovarianceGrowsWhileCoasting) {
  auto filter_or = KalmanFilter::Create(CvOptions());
  ASSERT_TRUE(filter_or.ok());
  KalmanFilter filter = std::move(filter_or).value();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(filter.Predict().ok());
    ASSERT_TRUE(filter.Correct(Vector{1.0}).ok());
  }
  const double settled = filter.covariance()(0, 0);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(filter.Predict().ok());
  EXPECT_GT(filter.covariance()(0, 0), settled);
}

TEST(KalmanFilterTest, UnbiasedOnNoisyConstant) {
  // Statistical property 1 (§1.1): the estimate is unbiased. Average the
  // final estimate over many independent noisy runs.
  Rng rng(42);
  double sum = 0.0;
  const int runs = 200;
  for (int run = 0; run < runs; ++run) {
    auto filter_or = KalmanFilter::Create(CvOptions());
    ASSERT_TRUE(filter_or.ok());
    KalmanFilter filter = std::move(filter_or).value();
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(filter.Predict().ok());
      ASSERT_TRUE(filter.Correct(Vector{3.0 + rng.Gaussian(0.0, 0.3)}).ok());
    }
    sum += filter.state()[0];
  }
  EXPECT_NEAR(sum / runs, 3.0, 0.02);
}

TEST(KalmanFilterTest, FilterVarianceBelowRawMeasurementVariance) {
  // Statistical property 2 (§1.1): the filtered estimate has lower error
  // variance than the raw measurement.
  Rng rng(43);
  double raw_sq = 0.0;
  double filt_sq = 0.0;
  int count = 0;
  auto filter_or = KalmanFilter::Create(CvOptions(1.0, 1e-6, 1.0));
  ASSERT_TRUE(filter_or.ok());
  KalmanFilter filter = std::move(filter_or).value();
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(filter.Predict().ok());
    const double z = 10.0 + rng.Gaussian(0.0, 1.0);
    ASSERT_TRUE(filter.Correct(Vector{z}).ok());
    if (i > 100) {  // after convergence
      raw_sq += (z - 10.0) * (z - 10.0);
      const double e = filter.state()[0] - 10.0;
      filt_sq += e * e;
      ++count;
    }
  }
  EXPECT_LT(filt_sq / count, 0.2 * raw_sq / count);
}

TEST(KalmanFilterTest, TimeVaryingTransitionFnIsUsed) {
  KalmanFilterOptions options;
  // x_{k+1} = (k even ? x : -x): alternating sign flip.
  options.transition_fn = [](int64_t k) {
    return Matrix{{k % 2 == 0 ? 1.0 : -1.0}};
  };
  options.measurement = Matrix{{1.0}};
  options.process_noise = Matrix{{0.0}};
  options.measurement_noise = Matrix{{1.0}};
  options.initial_state = Vector{2.0};
  options.initial_covariance = Matrix{{1.0}};
  auto filter_or = KalmanFilter::Create(options);
  ASSERT_TRUE(filter_or.ok());
  KalmanFilter filter = std::move(filter_or).value();
  ASSERT_TRUE(filter.Predict().ok());  // step 0: +1
  EXPECT_DOUBLE_EQ(filter.state()[0], 2.0);
  ASSERT_TRUE(filter.Predict().ok());  // step 1: -1
  EXPECT_DOUBLE_EQ(filter.state()[0], -2.0);
}

TEST(KalmanFilterTest, TransitionFnShapeChecked) {
  KalmanFilterOptions options;
  options.transition_fn = [](int64_t) { return Matrix::Identity(3); };
  options.measurement = Matrix{{1.0}};
  options.process_noise = Matrix{{0.0}};
  options.measurement_noise = Matrix{{1.0}};
  options.initial_state = Vector{0.0};
  options.initial_covariance = Matrix{{1.0}};
  auto filter_or = KalmanFilter::Create(options);
  ASSERT_TRUE(filter_or.ok());
  KalmanFilter filter = std::move(filter_or).value();
  EXPECT_EQ(filter.Predict().code(), StatusCode::kInternal);
}

TEST(KalmanFilterTest, CorrectRejectsWrongMeasurementSize) {
  auto filter_or = KalmanFilter::Create(CvOptions());
  ASSERT_TRUE(filter_or.ok());
  KalmanFilter filter = std::move(filter_or).value();
  EXPECT_FALSE(filter.Correct(Vector{1.0, 2.0}).ok());
}

// A singular innovation covariance (here S = H P H^T + R = 0, from H = 0
// and R = 0) is refused with a clean Status by Correct and Nis, and the
// refused Correct leaves the running state bit for bit as it was, although
// the filter's scratch shares its storage block.
TEST(KalmanFilterTest, SingularInnovationCovarianceLeavesStateUntouched) {
  KalmanFilterOptions options = CvOptions();
  options.measurement = Matrix{{0.0, 0.0}};
  options.measurement_noise = Matrix{{0.0}};
  auto filter_or = KalmanFilter::Create(options);
  ASSERT_TRUE(filter_or.ok());
  KalmanFilter filter = std::move(filter_or).value();
  for (int t = 0; t < 3; ++t) ASSERT_TRUE(filter.Predict().ok());
  const KalmanFilter before = filter;
  const Vector x = filter.state();
  const Matrix p = filter.covariance();
  const int64_t step = filter.step();
  const bool armed = filter.steady_state_armed();

  EXPECT_EQ(filter.Correct(Vector{1.0}).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(filter.Nis(Vector{1.0}).ok());
  EXPECT_TRUE(BitEqual(filter.state(), x));
  EXPECT_TRUE(BitEqual(filter.covariance(), p));
  EXPECT_EQ(filter.step(), step);
  EXPECT_EQ(filter.steady_state_armed(), armed);
  EXPECT_EQ(filter.last_innovation().size(), 0u);
  EXPECT_TRUE(filter.FullStateBitEquals(before));
}

TEST(KalmanFilterTest, InnovationTracked) {
  auto filter_or = KalmanFilter::Create(CvOptions());
  ASSERT_TRUE(filter_or.ok());
  KalmanFilter filter = std::move(filter_or).value();
  EXPECT_EQ(filter.last_innovation().size(), 0u);
  ASSERT_TRUE(filter.Predict().ok());
  ASSERT_TRUE(filter.Correct(Vector{7.0}).ok());
  ASSERT_EQ(filter.last_innovation().size(), 1u);
  EXPECT_DOUBLE_EQ(filter.last_innovation()[0], 7.0);  // prior was 0
}

TEST(KalmanFilterTest, AnswerCovarianceIsTheProjectedStateCovariance) {
  // The answer's uncertainty is H P H^T: the state covariance projected
  // into measurement space, without R (that would be a new reading's
  // uncertainty, not the answer's). Two measured components, so the
  // off-diagonal entries count too.
  KalmanFilterOptions options = CvOptions();
  options.measurement = Matrix{{1.0, 0.5}, {0.0, 2.0}};
  options.measurement_noise = Matrix{{0.3, 0.1}, {0.1, 0.4}};
  auto filter_or = KalmanFilter::Create(options);
  ASSERT_TRUE(filter_or.ok());
  KalmanFilter filter = std::move(filter_or).value();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(filter.Predict().ok());
    ASSERT_TRUE(filter.Correct(Vector{1.0 * i, 0.5}).ok());
  }
  ASSERT_TRUE(filter.Predict().ok());
  const Matrix& h = options.measurement;
  const Matrix expected = h * filter.covariance() * h.Transpose();
  const Matrix answer = filter.AnswerCovariance();
  ASSERT_EQ(answer.rows(), 2u);
  ASSERT_EQ(answer.cols(), 2u);
  for (size_t r = 0; r < 2; ++r) {
    for (size_t c = 0; c < 2; ++c) {
      EXPECT_NEAR(answer(r, c), expected(r, c), 1e-9 * expected(0, 0))
          << "entry " << r << "," << c;
    }
  }
  EXPECT_EQ(answer(0, 1), answer(1, 0));
  // The scalar reading is entry (0, 0), bit for bit.
  EXPECT_EQ(filter.AnswerVariance0(), answer(0, 0));
  EXPECT_EQ(filter.PredictedMeasurement0(), filter.PredictedMeasurement()[0]);
}

TEST(KalmanFilterTest, NisIsSmallForConsistentMeasurement) {
  auto filter_or = KalmanFilter::Create(CvOptions());
  ASSERT_TRUE(filter_or.ok());
  KalmanFilter filter = std::move(filter_or).value();
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(filter.Predict().ok());
    ASSERT_TRUE(filter.Correct(Vector{4.0}).ok());
  }
  ASSERT_TRUE(filter.Predict().ok());
  auto nis_near_or = filter.Nis(Vector{4.0});
  auto nis_far_or = filter.Nis(Vector{40.0});
  ASSERT_TRUE(nis_near_or.ok());
  ASSERT_TRUE(nis_far_or.ok());
  EXPECT_LT(nis_near_or.value(), 1.0);
  EXPECT_GT(nis_far_or.value(), 100.0);
}

TEST(KalmanFilterTest, JosephFormKeepsCovarianceSymmetricPsd) {
  auto filter_or = KalmanFilter::Create(CvOptions());
  ASSERT_TRUE(filter_or.ok());
  KalmanFilter filter = std::move(filter_or).value();
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(filter.Predict().ok());
    ASSERT_TRUE(filter.Correct(Vector{rng.Gaussian(0.0, 1.0)}).ok());
    const Matrix& p = filter.covariance();
    EXPECT_DOUBLE_EQ(p(0, 1), p(1, 0));
    EXPECT_GT(p(0, 0), 0.0);
    EXPECT_GT(p(1, 1), 0.0);
  }
}

TEST(KalmanFilterTest, SettersValidateShape) {
  auto filter_or = KalmanFilter::Create(CvOptions());
  ASSERT_TRUE(filter_or.ok());
  KalmanFilter filter = std::move(filter_or).value();
  EXPECT_TRUE(filter.set_process_noise(Matrix::Identity(2)).ok());
  EXPECT_FALSE(filter.set_process_noise(Matrix::Identity(3)).ok());
  EXPECT_TRUE(filter.set_measurement_noise(Matrix{{0.5}}).ok());
  EXPECT_FALSE(filter.set_measurement_noise(Matrix::Identity(2)).ok());
}

TEST(KalmanFilterTest, ResetRestoresInitialState) {
  auto filter_or = KalmanFilter::Create(CvOptions());
  ASSERT_TRUE(filter_or.ok());
  KalmanFilter filter = std::move(filter_or).value();
  ASSERT_TRUE(filter.Predict().ok());
  ASSERT_TRUE(filter.Correct(Vector{9.0}).ok());
  filter.Reset();
  EXPECT_EQ(filter.step(), 0);
  EXPECT_DOUBLE_EQ(filter.state()[0], 0.0);
  EXPECT_DOUBLE_EQ(filter.covariance()(0, 0), 100.0);
}

TEST(KalmanFilterTest, StateEqualsDetectsDivergence) {
  auto a_or = KalmanFilter::Create(CvOptions());
  auto b_or = KalmanFilter::Create(CvOptions());
  ASSERT_TRUE(a_or.ok());
  ASSERT_TRUE(b_or.ok());
  KalmanFilter a = std::move(a_or).value();
  KalmanFilter b = std::move(b_or).value();
  EXPECT_TRUE(a.StateEquals(b));
  ASSERT_TRUE(a.Predict().ok());
  EXPECT_FALSE(a.StateEquals(b));
  ASSERT_TRUE(b.Predict().ok());
  EXPECT_TRUE(a.StateEquals(b));
  ASSERT_TRUE(a.Correct(Vector{1.0}).ok());
  ASSERT_TRUE(b.Correct(Vector{1.0}).ok());
  EXPECT_TRUE(a.StateEquals(b));
  ASSERT_TRUE(a.Correct(Vector{2.0}).ok());
  ASSERT_TRUE(b.Correct(Vector{2.0000001}).ok());
  EXPECT_FALSE(a.StateEquals(b));
}

TEST(KalmanFilterTest, DeterministicReplay) {
  // Identical call sequences produce bit-identical trajectories — the
  // property the whole DKF protocol rests on.
  auto a_or = KalmanFilter::Create(CvOptions());
  auto b_or = KalmanFilter::Create(CvOptions());
  ASSERT_TRUE(a_or.ok());
  ASSERT_TRUE(b_or.ok());
  KalmanFilter a = std::move(a_or).value();
  KalmanFilter b = std::move(b_or).value();
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(a.Predict().ok());
    ASSERT_TRUE(b.Predict().ok());
    if (rng.Bernoulli(0.3)) {
      const Vector z{rng.Gaussian(0.0, 5.0)};
      ASSERT_TRUE(a.Correct(z).ok());
      ASSERT_TRUE(b.Correct(z).ok());
    }
    ASSERT_TRUE(a.StateEquals(b));
  }
}

/// Field-by-field bitwise comparison of two exported full states — the
/// reference FullStateBitEquals must agree with.
bool ExportedBitEqual(const KalmanFilter::FullState& a,
                      const KalmanFilter::FullState& b) {
  if (a.step != b.step || a.phase != b.phase || a.ss_mode != b.ss_mode ||
      a.ss_streak1 != b.ss_streak1 || a.ss_streak2 != b.ss_streak2 ||
      a.predicts_since_correct != b.predicts_since_correct ||
      a.ss_have_prev != b.ss_have_prev || a.ss_period != b.ss_period ||
      a.ss_pending_priors != b.ss_pending_priors ||
      a.ss_capture_idx != b.ss_capture_idx || a.ss_idx != b.ss_idx) {
    return false;
  }
  if (!BitEqual(a.x, b.x) || !BitEqual(a.p, b.p) ||
      !BitEqual(a.last_innovation, b.last_innovation) ||
      !BitEqual(a.process_noise, b.process_noise) ||
      !BitEqual(a.measurement_noise, b.measurement_noise) ||
      !BitEqual(a.ss_prev_gain, b.ss_prev_gain)) {
    return false;
  }
  for (int i = 0; i < 2; ++i) {
    if (!BitEqual(a.ss_prev_post[i], b.ss_prev_post[i]) ||
        !BitEqual(a.ss_gain[i], b.ss_gain[i]) ||
        !BitEqual(a.ss_prior_p[i], b.ss_prior_p[i]) ||
        !BitEqual(a.ss_post_p[i], b.ss_post_p[i])) {
      return false;
    }
  }
  return true;
}

/// One tick of a random dual-link-like cadence, applied to every filter.
void RandomStep(Rng& rng, double correct_probability,
                std::vector<KalmanFilter*> filters) {
  const bool correct = rng.Bernoulli(correct_probability);
  const Vector z{rng.Gaussian(0.0, 3.0)};
  for (KalmanFilter* filter : filters) {
    ASSERT_TRUE(filter->Predict().ok());
    if (correct) {
      ASSERT_TRUE(filter->Correct(z).ok());
    }
  }
}

TEST(KalmanFilterTest, FullStateBitEqualsAgreesWithExportedComparison) {
  Rng rng(2024);
  int equal = 0;
  int different = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const KalmanFilterOptions options =
        CvOptions(rng.Uniform(0.5, 2.0), rng.Uniform(0.001, 0.1),
                  rng.Uniform(0.05, 1.0));
    KalmanFilter a = KalmanFilter::Create(options).value();
    KalmanFilter b = KalmanFilter::Create(options).value();
    // A regular cadence long enough to arm the fast path on some trials,
    // a coasting-heavy one on others.
    const double cadence = rng.Bernoulli(0.5) ? 1.0 : 0.6;
    const int prefix = static_cast<int>(rng.UniformInt(0, 90));
    for (int i = 0; i < prefix; ++i) RandomStep(rng, cadence, {&a, &b});
    switch (rng.UniformInt(0, 5)) {
      case 0:  // still in lock-step
        break;
      case 1:  // one extra coasting predict
        ASSERT_TRUE(b.Predict().ok());
        break;
      case 2:  // a correction the other end never saw
        ASSERT_TRUE(a.Predict().ok());
        ASSERT_TRUE(b.Predict().ok());
        ASSERT_TRUE(a.Correct(Vector{1.0}).ok());
        break;
      case 3:  // resync: same x/P/step, but fast-path bookkeeping reset
        ASSERT_TRUE(b.ImportState(a.state(), a.covariance(), a.step()).ok());
        break;
      case 4:  // checkpoint restore: every bit carried over
        ASSERT_TRUE(b.ImportFullState(a.ExportFullState()).ok());
        break;
      case 5:  // a noise reconfiguration to the same values
        ASSERT_TRUE(b.set_process_noise(b.process_noise()).ok());
        break;
    }
    const int suffix = static_cast<int>(rng.UniformInt(0, 5));
    for (int i = 0; i < suffix; ++i) RandomStep(rng, cadence, {&a, &b});

    const bool expected =
        ExportedBitEqual(a.ExportFullState(), b.ExportFullState());
    ASSERT_EQ(a.FullStateBitEquals(b), expected) << "trial " << trial;
    ASSERT_EQ(b.FullStateBitEquals(a), expected) << "trial " << trial;
    ASSERT_TRUE(a.FullStateBitEquals(a));
    (expected ? equal : different)++;
  }
  EXPECT_GT(equal, 30);
  EXPECT_GT(different, 30);
}

/// The fields PredictStateBitEquals compares when both ends track.
bool PredictFieldsBitEqual(const KalmanFilter::FullState& a,
                           const KalmanFilter::FullState& b) {
  return a.step == b.step && a.phase == b.phase && a.ss_mode == b.ss_mode &&
         a.ss_idx == b.ss_idx && BitEqual(a.x, b.x) && BitEqual(a.p, b.p) &&
         BitEqual(a.process_noise, b.process_noise) &&
         BitEqual(a.measurement_noise, b.measurement_noise);
}

// The fleet's absorb test: in tracking mode only what a predict reads
// must match, elsewhere everything must. Its proof obligation is that
// uncorrected predicts can never tell two such filters apart — a resync
// (ImportState on one end) leaves them differing only in bookkeeping.
TEST(KalmanFilterTest, PredictStateBitEqualsKeepsUncorrectedPredictsInLockStep) {
  constexpr uint8_t kTracking = 0;
  Rng rng(2025);
  int folded_resyncs = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const KalmanFilterOptions options =
        CvOptions(rng.Uniform(0.5, 2.0), rng.Uniform(0.001, 0.1),
                  rng.Uniform(0.05, 1.0));
    KalmanFilter a = KalmanFilter::Create(options).value();
    KalmanFilter b = KalmanFilter::Create(options).value();
    const double cadence = rng.Bernoulli(0.5) ? 1.0 : 0.6;
    const int prefix = static_cast<int>(rng.UniformInt(0, 90));
    for (int i = 0; i < prefix; ++i) RandomStep(rng, cadence, {&a, &b});
    switch (rng.UniformInt(0, 3)) {
      case 0:  // still in lock-step
        break;
      case 1:  // one extra coasting predict
        ASSERT_TRUE(b.Predict().ok());
        break;
      case 2:  // a correction the other end never saw
        ASSERT_TRUE(a.Predict().ok());
        ASSERT_TRUE(b.Predict().ok());
        ASSERT_TRUE(a.Correct(Vector{1.0}).ok());
        break;
      case 3:  // resync: same x/P/step, bookkeeping reset on one end
        ASSERT_TRUE(a.Predict().ok());
        ASSERT_TRUE(b.Predict().ok());
        ASSERT_TRUE(b.ImportState(a.state(), a.covariance(), a.step()).ok());
        break;
    }
    const KalmanFilter::FullState fa = a.ExportFullState();
    const KalmanFilter::FullState fb = b.ExportFullState();
    const bool tracking = fa.ss_mode == kTracking && fb.ss_mode == kTracking;
    const bool expected =
        tracking ? PredictFieldsBitEqual(fa, fb) : ExportedBitEqual(fa, fb);
    ASSERT_EQ(a.PredictStateBitEquals(b), expected) << "trial " << trial;
    ASSERT_EQ(b.PredictStateBitEquals(a), expected) << "trial " << trial;
    if (!expected) continue;
    if (!a.FullStateBitEquals(b)) ++folded_resyncs;
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(a.Predict().ok());
      ASSERT_TRUE(b.Predict().ok());
      ASSERT_TRUE(a.PredictStateBitEquals(b))
          << "trial " << trial << " predict " << i;
      ASSERT_TRUE(PredictFieldsBitEqual(a.ExportFullState(),
                                        b.ExportFullState()))
          << "trial " << trial << " predict " << i;
    }
  }
  EXPECT_GT(folded_resyncs, 10);
}

TEST(KalmanFilterTest, FullStateBitEqualsCatchesEverySingleFieldFlip) {
  KalmanFilter base = KalmanFilter::Create(CvOptions()).value();
  Rng rng(5);
  for (int i = 0; i < 120; ++i) RandomStep(rng, 1.0, {&base});
  ASSERT_TRUE(base.steady_state_armed()) << "every fast-path field in play";
  const KalmanFilter::FullState full = base.ExportFullState();

  // Negating an entry changes its sign bit, so a 0.0 entry becomes the
  // -0.0 that `==` would call equal.
  auto negate = [](double& v) { v = -v; };
  using Flip = std::function<void(KalmanFilter::FullState&)>;
  const std::vector<std::pair<std::string, Flip>> flips = {
      {"step", [](auto& f) { ++f.step; }},
      {"phase", [](auto& f) { f.phase = (f.phase + 1) % 3; }},
      {"ss_mode", [](auto& f) { f.ss_mode = (f.ss_mode + 1) % 3; }},
      {"ss_streak1", [](auto& f) { ++f.ss_streak1; }},
      {"ss_streak2", [](auto& f) { ++f.ss_streak2; }},
      {"predicts_since_correct", [](auto& f) { ++f.predicts_since_correct; }},
      {"ss_have_prev", [](auto& f) { f.ss_have_prev = f.ss_have_prev ^ 1; }},
      {"ss_period", [](auto& f) { f.ss_period = 3 - f.ss_period; }},
      {"ss_pending_priors", [](auto& f) { ++f.ss_pending_priors; }},
      {"ss_capture_idx", [](auto& f) { ++f.ss_capture_idx; }},
      {"ss_idx", [](auto& f) { f.ss_idx = (f.ss_idx + 1) % 2; }},
      {"x", [&](auto& f) { negate(f.x[1]); }},
      {"p", [&](auto& f) { negate(f.p(0, 1)); }},
      {"last_innovation", [&](auto& f) { negate(f.last_innovation[0]); }},
      {"process_noise", [&](auto& f) { negate(f.process_noise(0, 1)); }},
      {"measurement_noise",
       [&](auto& f) { negate(f.measurement_noise(0, 0)); }},
      {"ss_prev_gain", [&](auto& f) { negate(f.ss_prev_gain(1, 0)); }},
      {"ss_prev_post[0]", [&](auto& f) { negate(f.ss_prev_post[0](1, 1)); }},
      {"ss_prev_post[1]", [&](auto& f) { negate(f.ss_prev_post[1](1, 1)); }},
      {"ss_gain[0]", [&](auto& f) { negate(f.ss_gain[0](0, 0)); }},
      {"ss_gain[1]", [&](auto& f) { negate(f.ss_gain[1](0, 0)); }},
      {"ss_prior_p[0]", [&](auto& f) { negate(f.ss_prior_p[0](0, 0)); }},
      {"ss_prior_p[1]", [&](auto& f) { negate(f.ss_prior_p[1](0, 0)); }},
      {"ss_post_p[0]", [&](auto& f) { negate(f.ss_post_p[0](0, 0)); }},
      {"ss_post_p[1]", [&](auto& f) { negate(f.ss_post_p[1](0, 0)); }},
  };
  KalmanFilter reference = KalmanFilter::Create(CvOptions()).value();
  ASSERT_TRUE(reference.ImportFullState(full).ok());
  ASSERT_TRUE(reference.FullStateBitEquals(base));
  for (const auto& [name, flip] : flips) {
    KalmanFilter::FullState flipped = full;
    flip(flipped);
    KalmanFilter other = KalmanFilter::Create(CvOptions()).value();
    ASSERT_TRUE(other.ImportFullState(flipped).ok()) << name;
    EXPECT_FALSE(ExportedBitEqual(full, other.ExportFullState())) << name;
    EXPECT_FALSE(reference.FullStateBitEquals(other)) << name;
    EXPECT_FALSE(other.FullStateBitEquals(reference)) << name;
  }

  // +0.0 vs -0.0 in the estimate: StateEquals (`==`) calls the two
  // filters equal, the bitwise predicate does not.
  KalmanFilter::FullState positive = full;
  KalmanFilter::FullState negative = full;
  positive.x[0] = 0.0;
  negative.x[0] = -0.0;
  KalmanFilter pos = KalmanFilter::Create(CvOptions()).value();
  KalmanFilter neg = KalmanFilter::Create(CvOptions()).value();
  ASSERT_TRUE(pos.ImportFullState(positive).ok());
  ASSERT_TRUE(neg.ImportFullState(negative).ok());
  EXPECT_TRUE(pos.StateEquals(neg));
  EXPECT_FALSE(pos.FullStateBitEquals(neg));
  EXPECT_FALSE(neg.FullStateBitEquals(pos));
}

TEST(KalmanFilterTest, ImportFullStateRejectsOutOfRangeCycleIndices) {
  // ss_idx and ss_capture_idx address the two-slot frozen gain and
  // covariance arrays; anything else must be refused before it is used
  // as an index (a hostile checkpoint carries arbitrary integers).
  KalmanFilter filter = KalmanFilter::Create(CvOptions()).value();
  Rng rng(3);
  for (int i = 0; i < 120; ++i) RandomStep(rng, 1.0, {&filter});
  const KalmanFilter::FullState full = filter.ExportFullState();
  for (int32_t bad : {-1, 2, 1 << 30}) {
    KalmanFilter::FullState idx = full;
    idx.ss_idx = bad;
    EXPECT_EQ(filter.ImportFullState(idx).code(), StatusCode::kInvalidArgument)
        << bad;
    KalmanFilter::FullState capture = full;
    capture.ss_capture_idx = bad;
    EXPECT_EQ(filter.ImportFullState(capture).code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
  EXPECT_TRUE(ExportedBitEqual(full, filter.ExportFullState()))
      << "a refused import left the filter changed";
}

}  // namespace
}  // namespace dkf
