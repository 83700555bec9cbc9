#include "filter/kalman_filter.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <type_traits>

#include "common/string_util.h"
#include "linalg/decompose.h"
#include "linalg/kernels.h"

namespace dkf {

namespace {

// Consecutive converged Corrects (under an unbroken Predict/Correct
// cadence) required before the steady-state fast path arms. Two in a row
// rules out a coincidental single match. Period-2 cycles require twice as
// many hits so each phase of the cycle is confirmed twice.
constexpr int kArmStreak = 2;

Status ValidateOptions(const KalmanFilterOptions& options) {
  const size_t n = options.initial_state.size();
  if (n == 0) return Status::InvalidArgument("empty initial state");
  if (!options.transition_fn) {
    if (options.transition.rows() != n || options.transition.cols() != n) {
      return Status::InvalidArgument(
          StrFormat("transition is %zux%zu, state dim is %zu",
                    options.transition.rows(), options.transition.cols(), n));
    }
  }
  const size_t m = options.measurement.rows();
  if (m == 0 || options.measurement.cols() != n) {
    return Status::InvalidArgument(
        StrFormat("measurement matrix is %zux%zu, state dim is %zu", m,
                  options.measurement.cols(), n));
  }
  if (options.process_noise.rows() != n || options.process_noise.cols() != n) {
    return Status::InvalidArgument("process noise must be n x n");
  }
  if (options.measurement_noise.rows() != m ||
      options.measurement_noise.cols() != m) {
    return Status::InvalidArgument("measurement noise must be m x m");
  }
  if (options.initial_covariance.rows() != n ||
      options.initial_covariance.cols() != n) {
    return Status::InvalidArgument("initial covariance must be n x n");
  }
  if (!options.initial_state.IsFinite() ||
      !options.initial_covariance.IsFinite()) {
    return Status::InvalidArgument("non-finite initial state or covariance");
  }
  // A non-finite coefficient would diverge the first predict or correct
  // and wedge every tick after it. A time-varying transition is only
  // known per step; Predict's own finiteness check covers it.
  if ((!options.transition_fn && !options.transition.IsFinite()) ||
      !options.measurement.IsFinite() || !options.process_noise.IsFinite() ||
      !options.measurement_noise.IsFinite()) {
    return Status::InvalidArgument(
        "non-finite transition, measurement or noise matrix");
  }
  return Status::OK();
}

/// One FullState matrix of the cold segment, with its shape and offset.
template <typename MatrixT>
struct ColdEntry {
  MatrixT* matrix;
  size_t offset;
  size_t rows;
  size_t cols;
};

/// The cold-segment matrices of `full` in KalmanStateLayout order.
template <typename FullStateT>
auto ColdMatrices(FullStateT& f, const KalmanStateLayout& l) {
  using Entry = ColdEntry<std::remove_reference_t<decltype((f.p))>>;
  const size_t n = l.n;
  const size_t m = l.m;
  return std::array<Entry, 11>{{
      {&f.process_noise, l.q, n, n},
      {&f.measurement_noise, l.r, m, m},
      {&f.ss_prev_post[0], l.prev_post[0], n, n},
      {&f.ss_prev_post[1], l.prev_post[1], n, n},
      {&f.ss_prev_gain, l.prev_gain, n, m},
      {&f.ss_gain[0], l.gain[0], n, m},
      {&f.ss_gain[1], l.gain[1], n, m},
      {&f.ss_prior_p[0], l.prior_p[0], n, n},
      {&f.ss_prior_p[1], l.prior_p[1], n, n},
      {&f.ss_post_p[0], l.post_p[0], n, n},
      {&f.ss_post_p[1], l.post_p[1], n, n},
  }};
}

/// Hands out consecutive segment offsets.
struct Cursor {
  size_t at;
  size_t Take(size_t count) {
    at += count;
    return at - count;
  }
};

}  // namespace

KalmanStateLayout::KalmanStateLayout(size_t n, size_t m, size_t begin)
    : n(n), m(m) {
  Cursor c{begin};
  x = c.Take(n);
  p = c.Take(n * n);
  q = c.Take(n * n);
  r = c.Take(m * m);
  for (size_t& slot : prev_post) slot = c.Take(n * n);
  prev_gain = c.Take(n * m);
  for (size_t& slot : gain) slot = c.Take(n * m);
  for (size_t& slot : prior_p) slot = c.Take(n * n);
  for (size_t& slot : post_p) slot = c.Take(n * n);
  innovation = c.Take(m);
  end = c.at;
}

KalmanFilter::BlockLayout::BlockLayout(size_t n, size_t m)
    : phi(0), h(n * n), x0(h + m * n), p0(x0 + n), state(n, m, p0 + n * n) {
  Cursor c{state.end};
  nn1 = c.Take(n * n);
  nn2 = c.Take(n * n);
  nn3 = c.Take(n * n);
  nm = c.Take(n * m);
  k = c.Take(n * m);
  mm = c.Take(m * m);
  mv1 = c.Take(m);
  mv2 = c.Take(m);
  nv = c.Take(n);
  size = c.at;
}

KalmanFilter::KalmanFilter(const KalmanFilterOptions& options, size_t n,
                           size_t m)
    : at_(n, m),
      block_(at_.size),
      pivots_(m),
      transition_fn_(options.transition_fn),
      steady_state_fast_path_(options.steady_state_fast_path),
      steady_state_tolerance_(options.steady_state_tolerance) {
  if (!transition_fn_) {
    std::copy_n(options.transition.data(), n * n, At(at_.phi));
  }
  std::copy_n(options.measurement.data(), m * n, At(at_.h));
  std::copy_n(options.initial_state.data(), n, At(at_.x0));
  std::copy_n(options.initial_covariance.data(), n * n, At(at_.p0));
  std::copy_n(At(at_.x0), n, At(at_.state.x));
  std::copy_n(At(at_.p0), n * n, At(at_.state.p));
  std::copy_n(options.process_noise.data(), n * n, At(at_.state.q));
  std::copy_n(options.measurement_noise.data(), m * m, At(at_.state.r));
}

Result<KalmanFilter> KalmanFilter::Create(const KalmanFilterOptions& options) {
  DKF_RETURN_IF_ERROR(ValidateOptions(options));
  return KalmanFilter(options, options.initial_state.size(),
                      options.measurement.rows());
}

Status KalmanFilter::LoadTransition(int64_t step) {
  const size_t n = at_.state.n;
  const Matrix phi = transition_fn_(step);
  if (phi.rows() != n || phi.cols() != n) {
    return Status::Internal(
        StrFormat("transition_fn returned %zux%zu for state dim %zu",
                  phi.rows(), phi.cols(), n));
  }
  std::copy_n(phi.data(), n * n, At(at_.phi));
  return Status::OK();
}

Matrix KalmanFilter::MatrixAt(size_t offset, size_t rows, size_t cols) const {
  Matrix out(rows, cols);
  std::copy_n(At(offset), rows * cols, out.data());
  return out;
}

Vector KalmanFilter::VectorAt(size_t offset, size_t size) const {
  Vector out(size);
  std::copy_n(At(offset), size, out.data());
  return out;
}

void KalmanFilter::SetInnovation(const double* innovation) {
  double* slot = At(at_.state.innovation);
  has_innovation_ = innovation != nullptr;
  if (has_innovation_) {
    std::copy_n(innovation, at_.state.m, slot);
  } else {
    std::fill_n(slot, at_.state.m, 0.0);
  }
}

void KalmanFilter::DisarmSteadyState() {
  if (ss_mode_ == SsMode::kArmed) {
    DKF_TRACE(obs_sink_, step_, obs_source_, TraceEventKind::kFastPathDisarm,
              obs_actor_, static_cast<double>(ss_period_));
  }
  ss_mode_ = SsMode::kTracking;
  ss_streak1_ = 0;
  ss_streak2_ = 0;
  ss_have_prev_ = 0;
}

Status KalmanFilter::Predict() {
  const size_t n = at_.state.n;
  double* x = At(at_.state.x);
  double* p = At(at_.state.p);
  double* nv = At(at_.nv);
  if (ss_mode_ == SsMode::kArmed) {
    if (phase_ == Phase::kCorrected) {
      // Fast path: x <- phi x with the frozen covariance cycle. The frozen
      // matrices are a floating-point fixed cycle of the slow-path
      // recursion, so assigning them is bit-identical to recomputing.
      MultiplyVectorInto(At(at_.phi), n, n, x, nv);
      std::copy_n(nv, n, x);
      ss_idx_ = (ss_idx_ + 1) % ss_period_;
      std::copy_n(At(at_.state.prior_p[ss_idx_]), n * n, p);
      ++step_;
      ++predicts_since_correct_;
      phase_ = Phase::kPredicted;
      if (!AllFinite(x, n)) {
        return Status::Internal("filter state diverged to non-finite values");
      }
      return Status::OK();
    }
    // A second Predict without an intervening Correct (a coasting tick)
    // moves the covariance off the frozen cycle: resume the full update.
    DisarmSteadyState();
  }
  if (transition_fn_) DKF_RETURN_IF_ERROR(LoadTransition(step_));
  // x <- phi x, P <- Symmetrize(phi P phi^T + Q).
  const double* phi = At(at_.phi);
  MultiplyVectorInto(phi, n, n, x, nv);
  std::copy_n(nv, n, x);
  PredictCovarianceInto(phi, p, At(at_.state.q), n, At(at_.nn1), p);
  ++step_;
  ++predicts_since_correct_;
  if (ss_mode_ == SsMode::kArmPending) {
    if (phase_ == Phase::kCorrected && predicts_since_correct_ == 1) {
      // Predict after an arming/pending Correct: this a-priori covariance
      // is one phase of the frozen cycle. Arm once all phases are
      // captured (one Predict for period 1, two for period 2).
      std::copy_n(p, n * n, At(at_.state.prior_p[ss_capture_idx_]));
      if (--ss_pending_priors_ == 0) {
        ss_mode_ = SsMode::kArmed;
        ss_idx_ = ss_capture_idx_;  // phase of the upcoming Correct
        DKF_TRACE(obs_sink_, step_, obs_source_,
                  TraceEventKind::kFastPathFreeze, obs_actor_,
                  static_cast<double>(ss_period_));
      } else {
        ss_capture_idx_ = (ss_capture_idx_ + 1) % ss_period_;
      }
    } else {
      DisarmSteadyState();
    }
  }
  phase_ = Phase::kPredicted;
  if (!AllFinite(x, n) || !AllFinite(p, n * n)) {
    return Status::Internal("filter state diverged to non-finite values");
  }
  return Status::OK();
}

void KalmanFilter::PredictedMeasurementInto(const double* h, const double* x,
                                            size_t n, size_t m, double* out) {
  MultiplyVectorInto(h, m, n, x, out);
}

void KalmanFilter::InnovationCovarianceInto(const double* h, const double* p,
                                            const double* r, size_t n,
                                            size_t m, double* ph, double* s) {
  MultiplyTransposedInto(p, n, n, h, m, ph);
  MultiplyInto(h, m, n, ph, m, s);
  AddScaledInto(s, r, 1.0, m * m, s);
}

void KalmanFilter::AnswerCovarianceInto(const double* h, const double* p,
                                        const double* r, size_t n, size_t m,
                                        double* ph, double* out) {
  InnovationCovarianceInto(h, p, r, n, m, ph, out);
  AddScaledInto(out, r, -1.0, m * m, out);
  SymmetrizeInPlace(out, m);
}

double KalmanFilter::AnswerVariance0(const double* h, const double* p,
                                     const double* r, size_t n) {
  // S(0, 0): each (P H^T)(k, 0) summed the way MultiplyTransposedInto
  // does, folded into row 0 of H the way MultiplyInto does (both skip
  // zero left factors), plus R(0, 0) the way AddScaledInto adds it; then
  // R(0, 0) taken off again.
  double s = 0.0;
  for (size_t k = 0; k < n; ++k) {
    const double hk = h[k];
    if (hk == 0.0) continue;
    double ph = 0.0;
    MultiplyTransposedInto(p + k * n, 1, n, h, 1, &ph);
    s += hk * ph;
  }
  return s + 1.0 * r[0] - r[0];
}

Vector KalmanFilter::PredictedMeasurement() const {
  Vector out(at_.state.m);
  PredictedMeasurementInto(At(at_.h), At(at_.state.x), at_.state.n,
                           at_.state.m, out.data());
  return out;
}

double KalmanFilter::PredictedMeasurement0() const {
  double out = 0.0;
  PredictedMeasurementInto(At(at_.h), At(at_.state.x), at_.state.n, 1, &out);
  return out;
}

double KalmanFilter::AnswerVariance0() const {
  return AnswerVariance0(At(at_.h), At(at_.state.p), At(at_.state.r),
                         at_.state.n);
}

void KalmanFilter::InnovationCovarianceInto() const {
  InnovationCovarianceInto(At(at_.h), At(at_.state.p), At(at_.state.r),
                           at_.state.n, at_.state.m, At(at_.nm), At(at_.mm));
}

Matrix KalmanFilter::InnovationCovariance() const {
  InnovationCovarianceInto();
  return MatrixAt(at_.mm, at_.state.m, at_.state.m);
}

Matrix KalmanFilter::AnswerCovariance() const {
  AnswerCovarianceInto(At(at_.h), At(at_.state.p), At(at_.state.r),
                       at_.state.n, at_.state.m, At(at_.nm), At(at_.mm));
  return MatrixAt(at_.mm, at_.state.m, at_.state.m);
}

Status KalmanFilter::Correct(const Vector& z) {
  const size_t n = at_.state.n;
  const size_t m = at_.state.m;
  if (z.size() != m) {
    return Status::InvalidArgument(
        StrFormat("measurement size %zu, expected %zu", z.size(), m));
  }
  const double* h = At(at_.h);
  double* x = At(at_.state.x);
  double* p = At(at_.state.p);
  double* mv1 = At(at_.mv1);
  double* mv2 = At(at_.mv2);
  double* nv = At(at_.nv);
  if (ss_mode_ == SsMode::kArmed) {
    if (phase_ == Phase::kPredicted && predicts_since_correct_ == 1) {
      // Fast path: x <- x + K (z - H x) with the frozen gain for this
      // cycle phase; the covariance snaps to the frozen a-posteriori
      // value.
      MultiplyVectorInto(h, m, n, x, mv1);
      AddScaledInto(z.data(), mv1, -1.0, m, mv2);
      MultiplyVectorInto(At(at_.state.gain[ss_idx_]), n, m, mv2, nv);
      AddScaledInto(x, nv, 1.0, n, x);
      std::copy_n(At(at_.state.post_p[ss_idx_]), n * n, p);
      SetInnovation(mv2);
      predicts_since_correct_ = 0;
      phase_ = Phase::kCorrected;
      if (!AllFinite(x, n)) {
        return Status::Internal("filter state diverged to non-finite values");
      }
      return Status::OK();
    }
    DisarmSteadyState();
  }

  // S into scratch, with P H^T beside it.
  InnovationCovarianceInto();
  double* nm = At(at_.nm);
  double* mm = At(at_.mm);
  double* k = At(at_.k);

  // K = P H^T S^{-1}, computed by LU-factoring S once and solving
  // S K^T = H P column-by-column (column j of H P is row j of P H^T) —
  // faster and better conditioned than forming S^{-1} explicitly. Only
  // scratch has been written so far, so a singular S leaves the state
  // untouched.
  Status factored = LuFactorInPlace(mm, m, pivots_.data());
  if (!factored.ok()) {
    return Status::FailedPrecondition(
        "innovation covariance not invertible: " + factored.message());
  }
  for (size_t j = 0; j < n; ++j) {
    LuSolveInto(mm, m, pivots_.data(), nm + j * m, k + j * m);
  }

  // x <- x + K (z - H x).
  MultiplyVectorInto(h, m, n, x, mv1);
  AddScaledInto(z.data(), mv1, -1.0, m, mv2);  // innovation
  MultiplyVectorInto(k, n, m, mv2, nv);
  AddScaledInto(x, nv, 1.0, n, x);

  // Joseph-form covariance update: (I-KH) P (I-KH)^T + K R K^T. Stable
  // against the loss of symmetry/positivity the textbook form suffers.
  double* nn1 = At(at_.nn1);
  double* nn2 = At(at_.nn2);
  double* nn3 = At(at_.nn3);
  MultiplyInto(k, n, m, h, n, nn1);
  std::fill_n(nn2, n * n, 0.0);
  for (size_t i = 0; i < n; ++i) nn2[i * n + i] = 1.0;
  AddScaledInto(nn2, nn1, -1.0, n * n, nn2);  // I - K H
  MultiplyInto(nn2, n, n, p, n, nn1);
  MultiplyTransposedInto(nn1, n, n, nn2, n, nn3);
  MultiplyInto(k, n, m, At(at_.state.r), m, nm);
  MultiplyTransposedInto(nm, n, m, k, n, nn1);
  AddScaledInto(nn3, nn1, 1.0, n * n, p);
  SymmetrizeInPlace(p, n);
  SetInnovation(mv2);

  const bool cadence_ok =
      phase_ == Phase::kPredicted && predicts_since_correct_ == 1;
  predicts_since_correct_ = 0;
  phase_ = Phase::kCorrected;
  if (!AllFinite(x, n) || !AllFinite(p, n * n)) {
    return Status::Internal("filter state diverged to non-finite values");
  }

  // Steady-state convergence tracking: arm once the post-Correct
  // covariance repeats (to within the configured tolerance; exactly, by
  // default) under an unbroken Predict/Correct cadence. Two repeat
  // patterns arm: a true fixed point (P equals the previous post-Correct
  // P) and the period-2 limit cycle multi-axis models settle into, where
  // P oscillates by an ulp forever but P(t) == P(t-2) exactly.
  if (steady_state_fast_path_ && !transition_fn_ &&
      steady_state_tolerance_ >= 0.0) {
    const KalmanStateLayout& l = at_.state;
    const size_t nn = n * n;
    const size_t nmc = n * m;
    const double tol = steady_state_tolerance_;
    const bool hit1 = cadence_ok && ss_have_prev_ >= 1 &&
                      MaxAbsDiff(p, At(l.prev_post[0]), nn) <= tol;
    const bool hit2 = cadence_ok && ss_have_prev_ >= 2 &&
                      MaxAbsDiff(p, At(l.prev_post[1]), nn) <= tol;
    ss_streak1_ = hit1 ? ss_streak1_ + 1 : 0;
    ss_streak2_ = hit2 ? ss_streak2_ + 1 : 0;
    // A pending capture is only valid while its own cycle keeps repeating.
    if (ss_mode_ == SsMode::kArmPending &&
        ((ss_period_ == 1 && !hit1) || (ss_period_ == 2 && !hit2))) {
      ss_mode_ = SsMode::kTracking;
    }
    if (ss_mode_ == SsMode::kTracking) {
      if (ss_streak1_ >= kArmStreak) {
        // Fixed point: a single-phase cycle.
        ss_period_ = 1;
        std::copy_n(k, nmc, At(l.gain[0]));
        std::copy_n(p, nn, At(l.post_p[0]));
        ss_pending_priors_ = 1;
        ss_capture_idx_ = 0;
        ss_mode_ = SsMode::kArmPending;
      } else if (ss_streak2_ >= 2 * kArmStreak) {
        // Period-2 cycle: this Correct is phase 1, the previous one was
        // phase 0 (its post-P and gain are still in the history ring).
        ss_period_ = 2;
        std::copy_n(At(l.prev_gain), nmc, At(l.gain[0]));
        std::copy_n(At(l.prev_post[0]), nn, At(l.post_p[0]));
        std::copy_n(k, nmc, At(l.gain[1]));
        std::copy_n(p, nn, At(l.post_p[1]));
        ss_pending_priors_ = 2;
        ss_capture_idx_ = 0;
        ss_mode_ = SsMode::kArmPending;
      }
    }
    std::copy_n(At(l.prev_post[0]), nn, At(l.prev_post[1]));
    std::copy_n(p, nn, At(l.prev_post[0]));
    std::copy_n(k, nmc, At(l.prev_gain));
    if (ss_have_prev_ < 2) ++ss_have_prev_;
  }
  return Status::OK();
}

Result<double> KalmanFilter::Nis(const Vector& z) const {
  const size_t n = at_.state.n;
  const size_t m = at_.state.m;
  if (z.size() != m) {
    return Status::InvalidArgument(
        StrFormat("measurement size %zu, expected %zu", z.size(), m));
  }
  // y^T S^{-1} y by factor-and-solve in scratch — no inverse, no
  // allocation.
  InnovationCovarianceInto();
  double* mm = At(at_.mm);
  double* mv1 = At(at_.mv1);
  double* mv2 = At(at_.mv2);
  MultiplyVectorInto(At(at_.h), m, n, At(at_.state.x), mv1);
  AddScaledInto(z.data(), mv1, -1.0, m, mv2);
  DKF_RETURN_IF_ERROR(LuFactorInPlace(mm, m, pivots_.data()));
  LuSolveInto(mm, m, pivots_.data(), mv2, mv1);
  double nis = 0.0;
  MultiplyVectorInto(mv2, 1, m, mv1, &nis);  // the dot product y . S^-1 y
  return nis;
}

Status KalmanFilter::set_process_noise(const Matrix& q) {
  const size_t n = at_.state.n;
  if (q.rows() != n || q.cols() != n) {
    return Status::InvalidArgument("process noise must be n x n");
  }
  std::copy_n(q.data(), n * n, At(at_.state.q));
  // The Riccati fixed point moved: leave the fast path and re-track.
  DisarmSteadyState();
  return Status::OK();
}

Status KalmanFilter::set_measurement_noise(const Matrix& r) {
  const size_t m = at_.state.m;
  if (r.rows() != m || r.cols() != m) {
    return Status::InvalidArgument("measurement noise must be m x m");
  }
  std::copy_n(r.data(), m * m, At(at_.state.r));
  DisarmSteadyState();
  return Status::OK();
}

Vector KalmanFilter::last_innovation() const {
  return has_innovation_ ? VectorAt(at_.state.innovation, at_.state.m)
                         : Vector();
}

void KalmanFilter::Reset() {
  const size_t n = at_.state.n;
  std::copy_n(At(at_.x0), n, At(at_.state.x));
  std::copy_n(At(at_.p0), n * n, At(at_.state.p));
  step_ = 0;
  SetInnovation(nullptr);
  phase_ = Phase::kInitial;
  predicts_since_correct_ = 0;
  DisarmSteadyState();
}

Status KalmanFilter::ImportState(const Vector& x, const Matrix& p,
                                 int64_t step) {
  const size_t n = at_.state.n;
  if (x.size() != n) {
    return Status::InvalidArgument("imported state has the wrong dimension");
  }
  if (p.rows() != n || p.cols() != n) {
    return Status::InvalidArgument(
        "imported covariance has the wrong dimensions");
  }
  std::copy_n(x.data(), n, At(at_.state.x));
  std::copy_n(p.data(), n * n, At(at_.state.p));
  step_ = step;
  SetInnovation(nullptr);
  phase_ = Phase::kPredicted;
  predicts_since_correct_ = 1;
  DisarmSteadyState();
  return Status::OK();
}

void KalmanFilter::PackCold(const FullState& full,
                            const KalmanStateLayout& layout, double* cold) {
  for (const auto& entry : ColdMatrices(full, layout)) {
    std::copy_n(entry.matrix->data(), entry.rows * entry.cols,
                cold + (entry.offset - layout.q));
  }
}

void KalmanFilter::UnpackCold(const double* cold,
                              const KalmanStateLayout& layout,
                              FullState* full) {
  for (const auto& entry : ColdMatrices(*full, layout)) {
    entry.matrix->AssignZero(entry.rows, entry.cols);
    std::copy_n(cold + (entry.offset - layout.q), entry.rows * entry.cols,
                entry.matrix->data());
  }
}

KalmanFilter::FullState KalmanFilter::ExportFullState() const {
  FullState full;
  full.x = state();
  full.p = covariance();
  full.step = step_;
  full.last_innovation = last_innovation();
  UnpackCold(At(at_.state.q), at_.state, &full);
  full.phase = static_cast<uint8_t>(phase_);
  full.ss_mode = static_cast<uint8_t>(ss_mode_);
  full.ss_streak1 = ss_streak1_;
  full.ss_streak2 = ss_streak2_;
  full.predicts_since_correct = predicts_since_correct_;
  full.ss_have_prev = ss_have_prev_;
  full.ss_period = ss_period_;
  full.ss_pending_priors = ss_pending_priors_;
  full.ss_capture_idx = ss_capture_idx_;
  full.ss_idx = ss_idx_;
  return full;
}

Status KalmanFilter::ImportFullState(const FullState& full) {
  const KalmanStateLayout& l = at_.state;
  const size_t n = l.n;
  const size_t m = l.m;
  if (full.x.size() != n || full.p.rows() != n || full.p.cols() != n) {
    return Status::InvalidArgument(
        "full state has the wrong state/covariance dimensions");
  }
  if (full.last_innovation.size() != 0 && full.last_innovation.size() != m) {
    return Status::InvalidArgument(
        "full state has the wrong innovation dimension");
  }
  if (full.phase > static_cast<uint8_t>(Phase::kCorrected) ||
      full.ss_mode > static_cast<uint8_t>(SsMode::kArmed) ||
      full.ss_period < 1 || full.ss_period > 2) {
    return Status::InvalidArgument("full state has out-of-range mode fields");
  }
  // The cycle indices address the two-slot frozen arrays.
  if (full.ss_idx < 0 || full.ss_idx > 1 || full.ss_capture_idx < 0 ||
      full.ss_capture_idx > 1) {
    return Status::InvalidArgument(
        "full state has out-of-range fast-path cycle indices");
  }
  // One scan over the values: every cold matrix's shape, then every
  // value's finiteness (a non-finite one would fail every later Predict).
  const auto cold = ColdMatrices(full, l);
  for (const auto& entry : cold) {
    if (entry.matrix->rows() != entry.rows ||
        entry.matrix->cols() != entry.cols) {
      return Status::InvalidArgument(
          "full state has the wrong noise or fast-path matrix shapes");
    }
  }
  bool finite = AllFinite(full.x.data(), n) &&
                AllFinite(full.p.data(), n * n) &&
                AllFinite(full.last_innovation.data(),
                          full.last_innovation.size());
  for (const auto& entry : cold) {
    finite = finite &&
             AllFinite(entry.matrix->data(), entry.rows * entry.cols);
  }
  if (!finite) {
    return Status::InvalidArgument("full state carries non-finite values");
  }
  std::copy_n(full.x.data(), n, At(l.x));
  std::copy_n(full.p.data(), n * n, At(l.p));
  step_ = full.step;
  SetInnovation(full.last_innovation.size() != 0
                    ? full.last_innovation.data()
                    : nullptr);
  // Q/R are written directly on purpose: set_process_noise and
  // set_measurement_noise would disarm the fast path, which must survive
  // a checkpoint intact.
  PackCold(full, l, At(l.q));
  phase_ = static_cast<Phase>(full.phase);
  ss_mode_ = static_cast<SsMode>(full.ss_mode);
  ss_streak1_ = full.ss_streak1;
  ss_streak2_ = full.ss_streak2;
  predicts_since_correct_ = full.predicts_since_correct;
  ss_have_prev_ = full.ss_have_prev;
  ss_period_ = full.ss_period;
  ss_pending_priors_ = full.ss_pending_priors;
  ss_capture_idx_ = full.ss_capture_idx;
  ss_idx_ = full.ss_idx;
  return Status::OK();
}

bool KalmanFilter::StateEquals(const KalmanFilter& other) const {
  // Exact `==` on x and P, which share one contiguous range.
  const KalmanStateLayout& l = at_.state;
  return step_ == other.step_ && l.n == other.at_.state.n &&
         std::equal(At(l.x), At(l.q), other.At(l.x));
}

bool KalmanFilter::ScalarsEqual(const KalmanFilter& other) const {
  return at_.state.n == other.at_.state.n &&
         at_.state.m == other.at_.state.m && step_ == other.step_ &&
         phase_ == other.phase_ && ss_mode_ == other.ss_mode_ &&
         ss_streak1_ == other.ss_streak1_ &&
         ss_streak2_ == other.ss_streak2_ &&
         predicts_since_correct_ == other.predicts_since_correct_ &&
         ss_have_prev_ == other.ss_have_prev_ &&
         ss_period_ == other.ss_period_ &&
         ss_pending_priors_ == other.ss_pending_priors_ &&
         ss_capture_idx_ == other.ss_capture_idx_ &&
         ss_idx_ == other.ss_idx_ &&
         has_innovation_ == other.has_innovation_;
}

bool KalmanFilter::FullStateBitEquals(const KalmanFilter& other) const {
  // Both blocks share one layout once the dimensions match, and an
  // absent innovation is all zeros, so the state range compares whole.
  const KalmanStateLayout& l = at_.state;
  return ScalarsEqual(other) &&
         std::memcmp(At(l.x), other.At(l.x),
                     (l.end - l.x) * sizeof(double)) == 0;
}

bool KalmanFilter::PredictStateBitEquals(const KalmanFilter& other) const {
  if (ss_mode_ != SsMode::kTracking || other.ss_mode_ != SsMode::kTracking) {
    return FullStateBitEquals(other);
  }
  // x, P, Q and R: the contiguous range a tracking predict reads.
  const KalmanStateLayout& l = at_.state;
  return l.n == other.at_.state.n && l.m == other.at_.state.m &&
         step_ == other.step_ && phase_ == other.phase_ &&
         ss_idx_ == other.ss_idx_ &&
         std::memcmp(At(l.x), other.At(l.x),
                     (l.prev_post[0] - l.x) * sizeof(double)) == 0;
}

}  // namespace dkf
