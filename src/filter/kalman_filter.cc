#include "filter/kalman_filter.h"

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

}  // namespace

KalmanFilter::KalmanFilter(KalmanFilterOptions options)
    : options_(std::move(options)),
      x_(options_.initial_state),
      p_(options_.initial_covariance),
      identity_(Matrix::Identity(options_.initial_state.size())) {
  // Pre-size the workspace so the hot loop never grows anything. For
  // n <= 6 the matrices are inline-stored and this is free; for larger
  // states it front-loads the heap allocations into construction.
  const size_t n = x_.size();
  const size_t m = options_.measurement.rows();
  scratch_.nn1.AssignZero(n, n);
  scratch_.nn2.AssignZero(n, n);
  scratch_.nn3.AssignZero(n, n);
  scratch_.nm1.AssignZero(n, m);
  scratch_.nm2.AssignZero(n, m);
  scratch_.k.AssignZero(n, m);
  scratch_.mm.AssignZero(m, m);
  scratch_.mv1.AssignZero(m);
  scratch_.mv2.AssignZero(m);
  scratch_.mv3.AssignZero(m);
  scratch_.nv1.AssignZero(n);
  scratch_.pivots.reserve(m);
  for (int i = 0; i < 2; ++i) {
    ss_prev_post_[i].AssignZero(n, n);
    ss_gain_[i].AssignZero(n, m);
    ss_prior_p_[i].AssignZero(n, n);
    ss_post_p_[i].AssignZero(n, n);
  }
  ss_prev_gain_.AssignZero(n, m);
}

Result<KalmanFilter> KalmanFilter::Create(const KalmanFilterOptions& options) {
  DKF_RETURN_IF_ERROR(ValidateOptions(options));
  return KalmanFilter(options);
}

const Matrix& KalmanFilter::TransitionAt(int64_t step) {
  if (!options_.transition_fn) return options_.transition;
  scratch_.phi = options_.transition_fn(step);
  return scratch_.phi;
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
  if (ss_mode_ == SsMode::kArmed) {
    if (phase_ == Phase::kCorrected) {
      // Fast path: x <- phi x with the frozen covariance cycle. The frozen
      // matrices are a floating-point fixed cycle of the slow-path
      // recursion, so assigning them is bit-identical to recomputing.
      MultiplyInto(options_.transition, x_, &scratch_.nv1);
      x_ = scratch_.nv1;
      ss_idx_ = (ss_idx_ + 1) % ss_period_;
      p_ = ss_prior_p_[ss_idx_];
      ++step_;
      ++predicts_since_correct_;
      phase_ = Phase::kPredicted;
      if (!x_.IsFinite()) {
        return Status::Internal("filter state diverged to non-finite values");
      }
      return Status::OK();
    }
    // A second Predict without an intervening Correct (a coasting tick)
    // moves the covariance off the frozen cycle: resume the full update.
    DisarmSteadyState();
  }
  const Matrix& phi = TransitionAt(step_);
  if (phi.rows() != x_.size() || phi.cols() != x_.size()) {
    return Status::Internal(
        StrFormat("transition_fn returned %zux%zu for state dim %zu",
                  phi.rows(), phi.cols(), x_.size()));
  }
  // x <- phi x, P <- phi P phi^T + Q, all in scratch.
  MultiplyInto(phi, x_, &scratch_.nv1);
  x_ = scratch_.nv1;
  MultiplyInto(phi, p_, &scratch_.nn1);
  MultiplyTransposedInto(scratch_.nn1, phi, &scratch_.nn2);
  AddScaledInto(scratch_.nn2, options_.process_noise, 1.0, &p_);
  p_.Symmetrize();
  ++step_;
  ++predicts_since_correct_;
  if (ss_mode_ == SsMode::kArmPending) {
    if (phase_ == Phase::kCorrected && predicts_since_correct_ == 1) {
      // Predict after an arming/pending Correct: this a-priori covariance
      // is one phase of the frozen cycle. Arm once all phases are
      // captured (one Predict for period 1, two for period 2).
      ss_prior_p_[ss_capture_idx_] = p_;
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
  if (!x_.IsFinite() || !p_.IsFinite()) {
    return Status::Internal("filter state diverged to non-finite values");
  }
  return Status::OK();
}

Vector KalmanFilter::PredictedMeasurement() const {
  return options_.measurement * x_;
}

double KalmanFilter::PredictedMeasurement0() const {
  // Row 0 of Matrix::operator*(Vector).
  const double* h_row = options_.measurement.RowData(0);
  double sum = 0.0;
  for (size_t c = 0; c < x_.size(); ++c) sum += h_row[c] * x_[c];
  return sum;
}

double KalmanFilter::InnovationVariance0() const {
  // Entry (0, 0) of InnovationCovariance(): each (P H^T)(k, 0) summed the
  // way MultiplyTransposedInto does, folded into row 0 of H the way
  // MultiplyInto does (both skip zero left factors), plus R(0, 0) the
  // way AddScaledInto adds it.
  const double* h_row = options_.measurement.RowData(0);
  const size_t n = x_.size();
  double s = 0.0;
  for (size_t k = 0; k < n; ++k) {
    const double hk = h_row[k];
    if (hk == 0.0) continue;
    const double* p_row = p_.RowData(k);
    double ph = 0.0;
    for (size_t l = 0; l < n; ++l) {
      const double pv = p_row[l];
      if (pv == 0.0) continue;
      ph += pv * h_row[l];
    }
    s += hk * ph;
  }
  return s + 1.0 * options_.measurement_noise(0, 0);
}

Matrix KalmanFilter::InnovationCovariance() const {
  const Matrix& h = options_.measurement;
  MultiplyTransposedInto(p_, h, &scratch_.nm1);
  Matrix s;
  MultiplyInto(h, scratch_.nm1, &s);
  AddScaledInto(s, options_.measurement_noise, 1.0, &s);
  return s;
}

Status KalmanFilter::Correct(const Vector& z) {
  const Matrix& h = options_.measurement;
  if (z.size() != h.rows()) {
    return Status::InvalidArgument(
        StrFormat("measurement size %zu, expected %zu", z.size(), h.rows()));
  }
  if (ss_mode_ == SsMode::kArmed) {
    if (phase_ == Phase::kPredicted && predicts_since_correct_ == 1) {
      // Fast path: x <- x + K (z - H x) with the frozen gain for this
      // cycle phase; the covariance snaps to the frozen a-posteriori
      // value.
      MultiplyInto(h, x_, &scratch_.mv1);
      AddScaledInto(z, scratch_.mv1, -1.0, &scratch_.mv2);
      MultiplyInto(ss_gain_[ss_idx_], scratch_.mv2, &scratch_.nv1);
      x_ += scratch_.nv1;
      p_ = ss_post_p_[ss_idx_];
      last_innovation_ = scratch_.mv2;
      predicts_since_correct_ = 0;
      phase_ = Phase::kCorrected;
      if (!x_.IsFinite()) {
        return Status::Internal("filter state diverged to non-finite values");
      }
      return Status::OK();
    }
    DisarmSteadyState();
  }
  const size_t n = x_.size();
  const size_t m = h.rows();

  // S = H (P H^T) + R, built in scratch. P is kept exactly symmetric by
  // Symmetrize, so P H^T is the transpose of H P entry-for-entry.
  MultiplyTransposedInto(p_, h, &scratch_.nm1);
  MultiplyInto(h, scratch_.nm1, &scratch_.mm);
  AddScaledInto(scratch_.mm, options_.measurement_noise, 1.0, &scratch_.mm);

  // K = P H^T S^{-1}, computed by LU-factoring S once and solving
  // S K^T = H P column-by-column (column j of H P is row j of P H^T) —
  // faster and better conditioned than forming S^{-1} explicitly.
  Status factored = LuFactorInPlace(&scratch_.mm, &scratch_.pivots);
  if (!factored.ok()) {
    return Status::FailedPrecondition(
        "innovation covariance not invertible: " + factored.message());
  }
  scratch_.k.AssignZero(n, m);
  for (size_t j = 0; j < n; ++j) {
    scratch_.mv3.AssignZero(m);
    const double* pht_row = scratch_.nm1.RowData(j);
    for (size_t i = 0; i < m; ++i) scratch_.mv3[i] = pht_row[i];
    DKF_RETURN_IF_ERROR(
        LuSolveInto(scratch_.mm, scratch_.pivots, scratch_.mv3,
                    &scratch_.mv1));
    for (size_t i = 0; i < m; ++i) scratch_.k(j, i) = scratch_.mv1[i];
  }

  // x <- x + K (z - H x).
  MultiplyInto(h, x_, &scratch_.mv1);
  AddScaledInto(z, scratch_.mv1, -1.0, &scratch_.mv2);  // innovation
  MultiplyInto(scratch_.k, scratch_.mv2, &scratch_.nv1);
  x_ += scratch_.nv1;

  // Joseph-form covariance update: (I-KH) P (I-KH)^T + K R K^T. Stable
  // against the loss of symmetry/positivity the textbook form suffers.
  MultiplyInto(scratch_.k, h, &scratch_.nn1);
  AddScaledInto(identity_, scratch_.nn1, -1.0, &scratch_.nn2);  // I - K H
  MultiplyInto(scratch_.nn2, p_, &scratch_.nn1);
  MultiplyTransposedInto(scratch_.nn1, scratch_.nn2, &scratch_.nn3);
  MultiplyInto(scratch_.k, options_.measurement_noise, &scratch_.nm2);
  MultiplyTransposedInto(scratch_.nm2, scratch_.k, &scratch_.nn1);
  AddScaledInto(scratch_.nn3, scratch_.nn1, 1.0, &p_);
  p_.Symmetrize();
  last_innovation_ = scratch_.mv2;

  const bool cadence_ok =
      phase_ == Phase::kPredicted && predicts_since_correct_ == 1;
  predicts_since_correct_ = 0;
  phase_ = Phase::kCorrected;
  if (!x_.IsFinite() || !p_.IsFinite()) {
    return Status::Internal("filter state diverged to non-finite values");
  }

  // Steady-state convergence tracking: arm once the post-Correct
  // covariance repeats (to within the configured tolerance; exactly, by
  // default) under an unbroken Predict/Correct cadence. Two repeat
  // patterns arm: a true fixed point (P equals the previous post-Correct
  // P) and the period-2 limit cycle multi-axis models settle into, where
  // P oscillates by an ulp forever but P(t) == P(t-2) exactly.
  if (options_.steady_state_fast_path && !options_.transition_fn &&
      options_.steady_state_tolerance >= 0.0) {
    const double tol = options_.steady_state_tolerance;
    const bool hit1 = cadence_ok && ss_have_prev_ >= 1 &&
                      p_.MaxAbsDiff(ss_prev_post_[0]) <= tol;
    const bool hit2 = cadence_ok && ss_have_prev_ >= 2 &&
                      p_.MaxAbsDiff(ss_prev_post_[1]) <= tol;
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
        ss_gain_[0] = scratch_.k;
        ss_post_p_[0] = p_;
        ss_pending_priors_ = 1;
        ss_capture_idx_ = 0;
        ss_mode_ = SsMode::kArmPending;
      } else if (ss_streak2_ >= 2 * kArmStreak) {
        // Period-2 cycle: this Correct is phase 1, the previous one was
        // phase 0 (its post-P and gain are still in the history ring).
        ss_period_ = 2;
        ss_gain_[0] = ss_prev_gain_;
        ss_post_p_[0] = ss_prev_post_[0];
        ss_gain_[1] = scratch_.k;
        ss_post_p_[1] = p_;
        ss_pending_priors_ = 2;
        ss_capture_idx_ = 0;
        ss_mode_ = SsMode::kArmPending;
      }
    }
    ss_prev_post_[1] = ss_prev_post_[0];
    ss_prev_post_[0] = p_;
    ss_prev_gain_ = scratch_.k;
    if (ss_have_prev_ < 2) ++ss_have_prev_;
  }
  return Status::OK();
}

Result<double> KalmanFilter::Nis(const Vector& z) const {
  const Matrix& h = options_.measurement;
  if (z.size() != h.rows()) {
    return Status::InvalidArgument(
        StrFormat("measurement size %zu, expected %zu", z.size(), h.rows()));
  }
  // y^T S^{-1} y by factor-and-solve against scratch — no inverse, no
  // allocation.
  MultiplyTransposedInto(p_, h, &scratch_.nm1);
  MultiplyInto(h, scratch_.nm1, &scratch_.mm);
  AddScaledInto(scratch_.mm, options_.measurement_noise, 1.0, &scratch_.mm);
  MultiplyInto(h, x_, &scratch_.mv1);
  AddScaledInto(z, scratch_.mv1, -1.0, &scratch_.mv2);
  DKF_RETURN_IF_ERROR(LuFactorInPlace(&scratch_.mm, &scratch_.pivots));
  DKF_RETURN_IF_ERROR(
      LuSolveInto(scratch_.mm, scratch_.pivots, scratch_.mv2, &scratch_.mv1));
  return scratch_.mv2.Dot(scratch_.mv1);
}

Status KalmanFilter::set_process_noise(const Matrix& q) {
  if (q.rows() != x_.size() || q.cols() != x_.size()) {
    return Status::InvalidArgument("process noise must be n x n");
  }
  options_.process_noise = q;
  // The Riccati fixed point moved: leave the fast path and re-track.
  DisarmSteadyState();
  return Status::OK();
}

Status KalmanFilter::set_measurement_noise(const Matrix& r) {
  const size_t m = options_.measurement.rows();
  if (r.rows() != m || r.cols() != m) {
    return Status::InvalidArgument("measurement noise must be m x m");
  }
  options_.measurement_noise = r;
  DisarmSteadyState();
  return Status::OK();
}

void KalmanFilter::Reset() {
  x_ = options_.initial_state;
  p_ = options_.initial_covariance;
  step_ = 0;
  last_innovation_ = Vector();
  phase_ = Phase::kInitial;
  predicts_since_correct_ = 0;
  DisarmSteadyState();
}

Status KalmanFilter::ImportState(const Vector& x, const Matrix& p,
                                 int64_t step) {
  if (x.size() != x_.size()) {
    return Status::InvalidArgument("imported state has the wrong dimension");
  }
  if (p.rows() != p_.rows() || p.cols() != p_.cols()) {
    return Status::InvalidArgument(
        "imported covariance has the wrong dimensions");
  }
  x_ = x;
  p_ = p;
  step_ = step;
  last_innovation_ = Vector();
  phase_ = Phase::kPredicted;
  predicts_since_correct_ = 1;
  DisarmSteadyState();
  return Status::OK();
}

KalmanFilter::FullState KalmanFilter::ExportFullState() const {
  FullState full;
  full.x = x_;
  full.p = p_;
  full.step = step_;
  full.last_innovation = last_innovation_;
  full.process_noise = options_.process_noise;
  full.measurement_noise = options_.measurement_noise;
  full.phase = static_cast<uint8_t>(phase_);
  full.ss_mode = static_cast<uint8_t>(ss_mode_);
  full.ss_streak1 = ss_streak1_;
  full.ss_streak2 = ss_streak2_;
  full.predicts_since_correct = predicts_since_correct_;
  full.ss_have_prev = ss_have_prev_;
  for (int i = 0; i < 2; ++i) {
    full.ss_prev_post[i] = ss_prev_post_[i];
    full.ss_gain[i] = ss_gain_[i];
    full.ss_prior_p[i] = ss_prior_p_[i];
    full.ss_post_p[i] = ss_post_p_[i];
  }
  full.ss_prev_gain = ss_prev_gain_;
  full.ss_period = ss_period_;
  full.ss_pending_priors = ss_pending_priors_;
  full.ss_capture_idx = ss_capture_idx_;
  full.ss_idx = ss_idx_;
  return full;
}

Status KalmanFilter::ImportFullState(const FullState& full) {
  const size_t n = x_.size();
  const size_t m = options_.measurement.rows();
  if (full.x.size() != n || full.p.rows() != n || full.p.cols() != n) {
    return Status::InvalidArgument(
        "full state has the wrong state/covariance dimensions");
  }
  if (full.process_noise.rows() != n || full.process_noise.cols() != n ||
      full.measurement_noise.rows() != m ||
      full.measurement_noise.cols() != m) {
    return Status::InvalidArgument("full state has the wrong noise shapes");
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
  for (int i = 0; i < 2; ++i) {
    if (full.ss_prev_post[i].rows() != n || full.ss_prev_post[i].cols() != n ||
        full.ss_prior_p[i].rows() != n || full.ss_prior_p[i].cols() != n ||
        full.ss_post_p[i].rows() != n || full.ss_post_p[i].cols() != n ||
        full.ss_gain[i].rows() != n || full.ss_gain[i].cols() != m) {
      return Status::InvalidArgument(
          "full state has the wrong fast-path matrix shapes");
    }
  }
  if (full.ss_prev_gain.rows() != n || full.ss_prev_gain.cols() != m) {
    return Status::InvalidArgument(
        "full state has the wrong fast-path gain shape");
  }
  if (!full.x.IsFinite() || !full.p.IsFinite()) {
    return Status::InvalidArgument(
        "full state carries non-finite estimate or covariance");
  }
  bool finite = full.last_innovation.IsFinite() &&
                full.process_noise.IsFinite() &&
                full.measurement_noise.IsFinite() &&
                full.ss_prev_gain.IsFinite();
  for (int i = 0; i < 2; ++i) {
    finite = finite && full.ss_prev_post[i].IsFinite() &&
             full.ss_gain[i].IsFinite() && full.ss_prior_p[i].IsFinite() &&
             full.ss_post_p[i].IsFinite();
  }
  if (!finite) {
    return Status::InvalidArgument(
        "full state carries non-finite noise, innovation or fast-path "
        "matrices");
  }
  x_ = full.x;
  p_ = full.p;
  step_ = full.step;
  last_innovation_ = full.last_innovation;
  // Direct assignment on purpose: set_process_noise/set_measurement_noise
  // would disarm the fast path, which must survive a checkpoint intact.
  options_.process_noise = full.process_noise;
  options_.measurement_noise = full.measurement_noise;
  phase_ = static_cast<Phase>(full.phase);
  ss_mode_ = static_cast<SsMode>(full.ss_mode);
  ss_streak1_ = full.ss_streak1;
  ss_streak2_ = full.ss_streak2;
  predicts_since_correct_ = full.predicts_since_correct;
  ss_have_prev_ = full.ss_have_prev;
  for (int i = 0; i < 2; ++i) {
    ss_prev_post_[i] = full.ss_prev_post[i];
    ss_gain_[i] = full.ss_gain[i];
    ss_prior_p_[i] = full.ss_prior_p[i];
    ss_post_p_[i] = full.ss_post_p[i];
  }
  ss_prev_gain_ = full.ss_prev_gain;
  ss_period_ = full.ss_period;
  ss_pending_priors_ = full.ss_pending_priors;
  ss_capture_idx_ = full.ss_capture_idx;
  ss_idx_ = full.ss_idx;
  return Status::OK();
}

bool KalmanFilter::StateEquals(const KalmanFilter& other) const {
  if (step_ != other.step_ || x_.size() != other.x_.size()) return false;
  for (size_t i = 0; i < x_.size(); ++i) {
    if (x_[i] != other.x_[i]) return false;
  }
  if (p_.rows() != other.p_.rows() || p_.cols() != other.p_.cols()) {
    return false;
  }
  for (size_t r = 0; r < p_.rows(); ++r) {
    for (size_t c = 0; c < p_.cols(); ++c) {
      if (p_(r, c) != other.p_(r, c)) return false;
    }
  }
  return true;
}

bool KalmanFilter::FullStateBitEquals(const KalmanFilter& other) const {
  if (step_ != other.step_ || phase_ != other.phase_ ||
      ss_mode_ != other.ss_mode_ || ss_streak1_ != other.ss_streak1_ ||
      ss_streak2_ != other.ss_streak2_ ||
      predicts_since_correct_ != other.predicts_since_correct_ ||
      ss_have_prev_ != other.ss_have_prev_ ||
      ss_period_ != other.ss_period_ ||
      ss_pending_priors_ != other.ss_pending_priors_ ||
      ss_capture_idx_ != other.ss_capture_idx_ || ss_idx_ != other.ss_idx_) {
    return false;
  }
  if (!BitEqual(x_, other.x_) || !BitEqual(p_, other.p_) ||
      !BitEqual(last_innovation_, other.last_innovation_) ||
      !BitEqual(options_.process_noise, other.options_.process_noise) ||
      !BitEqual(options_.measurement_noise,
                other.options_.measurement_noise) ||
      !BitEqual(ss_prev_gain_, other.ss_prev_gain_)) {
    return false;
  }
  for (int i = 0; i < 2; ++i) {
    if (!BitEqual(ss_prev_post_[i], other.ss_prev_post_[i]) ||
        !BitEqual(ss_gain_[i], other.ss_gain_[i]) ||
        !BitEqual(ss_prior_p_[i], other.ss_prior_p_[i]) ||
        !BitEqual(ss_post_p_[i], other.ss_post_p_[i])) {
      return false;
    }
  }
  return true;
}

bool KalmanFilter::PredictStateBitEquals(const KalmanFilter& other) const {
  if (ss_mode_ != SsMode::kTracking || other.ss_mode_ != SsMode::kTracking) {
    return FullStateBitEquals(other);
  }
  return step_ == other.step_ && phase_ == other.phase_ &&
         ss_idx_ == other.ss_idx_ && BitEqual(x_, other.x_) &&
         BitEqual(p_, other.p_) &&
         BitEqual(options_.process_noise, other.options_.process_noise) &&
         BitEqual(options_.measurement_noise,
                  other.options_.measurement_noise);
}

}  // namespace dkf
