#ifndef DKF_FILTER_KALMAN_FILTER_H_
#define DKF_FILTER_KALMAN_FILTER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "linalg/matrix.h"
#include "obs/trace_sink.h"

namespace dkf {

/// Full configuration of a discrete Kalman filter
///   x_{k+1} = phi_k x_k + w_k,   w ~ N(0, Q)
///   z_k     = H x_k + v_k,       v ~ N(0, R)
/// (paper eqs. 3-12). `transition_fn`, when set, supplies a time-varying
/// phi_k (needed by the sinusoidal model of §4.2); otherwise the constant
/// `transition` is used.
struct KalmanFilterOptions {
  /// Constant state-transition matrix phi (n x n). Ignored when
  /// transition_fn is set.
  Matrix transition;

  /// Optional time-varying transition: called with the *current* step index
  /// k to produce the matrix relating x_k to x_{k+1}. Must be
  /// deterministic — the dual-filter protocol relies on the mirror filter
  /// reproducing the server filter bit-for-bit.
  std::function<Matrix(int64_t)> transition_fn;

  /// Measurement matrix H (m x n).
  Matrix measurement;

  /// Process-noise covariance Q (n x n).
  Matrix process_noise;

  /// Measurement-noise covariance R (m x m).
  Matrix measurement_noise;

  /// Initial state estimate x_0 (n).
  Vector initial_state;

  /// Initial error covariance P_0 (n x n).
  Matrix initial_covariance;

  /// Enables the steady-state fast path: once the post-Correct covariance
  /// settles into a repeating cycle under the regular Predict/Correct
  /// cadence (a time-invariant model driven at every tick reaches the
  /// Riccati fixed point — or an exact 1-ulp limit cycle of period 2 —
  /// after a few dozen corrections), the filter freezes the gain and
  /// covariance cycle and skips the Riccati/Joseph arithmetic entirely.
  /// With the default exact tolerance this is *bit-identical* to the slow
  /// path — the frozen values are a floating-point fixed cycle, so
  /// recomputing them would reproduce them exactly — which preserves the
  /// dual-link mirror contract. Disarmed automatically by coasting ticks,
  /// noise reconfiguration, and Reset; never armed for time-varying
  /// transitions. See docs/perf.md.
  bool steady_state_fast_path = true;

  /// Covariance convergence tolerance for arming the fast path, compared
  /// against the max-abs elementwise delta of post-Correct covariances one
  /// (period-1) or two (period-2) corrections apart. The default 0.0
  /// requires an exact floating-point fixed cycle (bit-exactness guarantee
  /// above). A small positive value arms earlier — and on models whose
  /// covariance never repeats exactly (high-order polynomial models) — at
  /// the cost of freezing a gain that differs from the converging one in
  /// the last bits; both ends of a dual link still stay in lock-step
  /// because they run identical code on identical inputs.
  double steady_state_tolerance = 0.0;
};

/// Discrete Kalman filter over double-valued states.
///
/// Usage per tick: call Predict() once (propagates the estimate through
/// phi_k and inflates the covariance by Q), read PredictedMeasurement(),
/// and call Correct(z) only when a measurement is available. Skipping
/// Correct leaves the filter coasting on the model — exactly the behaviour
/// the DKF protocol exploits when an update is suppressed.
///
/// The per-tick arithmetic runs against a preallocated per-filter scratch
/// workspace via the in-place kernels in linalg/kernels.h, so for state
/// dimensions <= 6 a Predict+Correct cycle performs zero heap allocations
/// (pinned by tests/filter/fast_path_test.cc; see docs/perf.md).
class KalmanFilter {
 public:
  /// Validates dimensions and builds the filter. Errors with
  /// InvalidArgument when shapes are inconsistent.
  static Result<KalmanFilter> Create(const KalmanFilterOptions& options);

  /// Time update: x <- phi_k x, P <- phi_k P phi_k^T + Q; advances the step
  /// counter. After this call state() is the a-priori estimate for the new
  /// step.
  Status Predict();

  /// The measurement the filter expects at the current step: H x.
  Vector PredictedMeasurement() const;

  /// Measurement update with observation z (the correction step, eq. 8-12;
  /// the covariance update uses the Joseph form for numerical robustness).
  /// The gain K = P H^T S^{-1} is computed by LU-factoring S once and
  /// solving S K^T = H P — no explicit inverse. Errors when the innovation
  /// covariance is not invertible.
  Status Correct(const Vector& z);

  /// Current state estimate (a-priori right after Predict, a-posteriori
  /// right after Correct).
  const Vector& state() const { return x_; }

  /// Current error covariance.
  const Matrix& covariance() const { return p_; }

  /// Number of Predict() calls so far.
  int64_t step() const { return step_; }

  size_t state_dim() const { return x_.size(); }
  size_t measurement_dim() const { return options_.measurement.rows(); }

  /// Innovation z - Hx from the most recent Correct (empty before the
  /// first correction).
  const Vector& last_innovation() const { return last_innovation_; }

  /// Innovation covariance S = H P H^T + R at the current state.
  Matrix InnovationCovariance() const;

  /// Component 0 of PredictedMeasurement() and entry (0, 0) of
  /// InnovationCovariance(), computed with the same operations in the
  /// same order (so bit-identical) without building either.
  double PredictedMeasurement0() const;
  double InnovationVariance0() const;

  /// Normalized innovation squared y^T S^{-1} y for measurement z — the
  /// chi-squared consistency statistic used by outlier detection, model
  /// switching, and adaptive sampling. Factor-and-solve, no inverse.
  Result<double> Nis(const Vector& z) const;

  /// Replaces Q (used by the adaptive noise estimator and the smoothing
  /// factor F knob). Must keep the (n x n) shape. Disarms the steady-state
  /// fast path.
  Status set_process_noise(const Matrix& q);

  /// Replaces R. Must keep the (m x m) shape. Disarms the steady-state
  /// fast path.
  Status set_measurement_noise(const Matrix& r);

  const Matrix& process_noise() const { return options_.process_noise; }
  const Matrix& measurement_noise() const {
    return options_.measurement_noise;
  }

  /// True while the steady-state fast path is engaged: the covariance has
  /// converged and Predict/Correct run with the frozen gain and covariance
  /// cycle, skipping the Riccati/Joseph arithmetic.
  bool steady_state_armed() const { return ss_mode_ == SsMode::kArmed; }

  /// Resets state, covariance, and step counter to the initial values.
  void Reset();

  /// Overwrites state, covariance, and step counter with an externally
  /// supplied snapshot — the receiving half of the dual-link full-state
  /// resync. The snapshot is taken bit-exact (no arithmetic touches it),
  /// the filter is placed in the post-Predict phase (a resync carries the
  /// peer's a-priori state), and the steady-state fast path is disarmed.
  /// Errors when the dimensions do not match this filter's model.
  Status ImportState(const Vector& x, const Matrix& p, int64_t step);

  /// True when the two filters have bit-identical state, covariance, and
  /// step counter — the mirror-consistency predicate of the DKF protocol.
  bool StateEquals(const KalmanFilter& other) const;

  /// True when the two filters' ExportFullState() copies would be bitwise
  /// equal in every field, decided in place without building either copy.
  /// Scalars are compared first, so the usual mismatch (a step or
  /// fast-path counter) returns before any matrix is read. Unlike
  /// StateEquals this tells -0.0 from 0.0. The batched fleet engine's
  /// absorb test (docs/fleet.md).
  bool FullStateBitEquals(const KalmanFilter& other) const;

  /// Everything that distinguishes a running filter from a freshly
  /// constructed one with the same model recipe: estimate, covariance,
  /// step/phase counters, the current (possibly reconfigured) Q and R, and
  /// the complete steady-state fast-path bookkeeping including the frozen
  /// gain/covariance cycle. Restoring it via ImportFullState continues the
  /// filter bit-identically — unlike the resync-oriented ImportState, which
  /// deliberately disarms the fast path. Scratch is excluded: it never
  /// carries state across calls. Used by src/checkpoint/.
  struct FullState {
    Vector x;
    Matrix p;
    int64_t step = 0;
    Vector last_innovation;
    Matrix process_noise;
    Matrix measurement_noise;
    uint8_t phase = 0;    // Phase enum value
    uint8_t ss_mode = 0;  // SsMode enum value
    int32_t ss_streak1 = 0;
    int32_t ss_streak2 = 0;
    int64_t predicts_since_correct = 0;
    int32_t ss_have_prev = 0;
    Matrix ss_prev_post[2];
    Matrix ss_prev_gain;
    int32_t ss_period = 1;
    int32_t ss_pending_priors = 0;
    int32_t ss_capture_idx = 0;
    int32_t ss_idx = 0;
    Matrix ss_gain[2];
    Matrix ss_prior_p[2];
    Matrix ss_post_p[2];
  };

  FullState ExportFullState() const;

  /// Overwrites the full running state. Errors (leaving the filter
  /// untouched) when any dimension disagrees with this filter's model or
  /// an enum value is out of range. Q/R are assigned directly — this is a
  /// state restore, not a reconfiguration, so the fast path is *not*
  /// disarmed.
  Status ImportFullState(const FullState& full);

  /// Wires an observability sink: fast-path freeze/disarm transitions are
  /// emitted as trace events tagged (source_id, actor). Pass nullptr to
  /// unwire. Observation only — never alters filter arithmetic.
  void set_trace(TraceSink* sink, int32_t source_id, TraceActor actor) {
    obs_sink_ = sink;
    obs_source_ = source_id;
    obs_actor_ = actor;
  }

  /// The transition matrix this filter itself would use at `step` — the
  /// batched fleet engine (src/fleet/) asserts its cached per-group
  /// coefficients are these exact bits before trusting them.
  const Matrix& TransitionForStep(int64_t step) { return TransitionAt(step); }

 private:
  explicit KalmanFilter(KalmanFilterOptions options);

  /// The transition for `step`. Returns a reference to the constant matrix
  /// when no transition_fn is set (no copy); otherwise evaluates the
  /// callback into scratch and returns a reference to it.
  const Matrix& TransitionAt(int64_t step);

  /// Where the filter sits in the Predict/Correct cadence — the guard the
  /// steady-state fast path uses to detect coasting (Predict,Predict) and
  /// other cadence breaks that move the covariance off its fixed cycle.
  enum class Phase { kInitial, kPredicted, kCorrected };

  /// Steady-state fast-path mode: tracking convergence, waiting for the
  /// next Predict(s) to capture the a-priori covariance cycle, or armed.
  enum class SsMode { kTracking, kArmPending, kArmed };

  /// Leaves the fast path and restarts convergence tracking.
  void DisarmSteadyState();

  /// Preallocated per-filter workspace for the in-place kernels. Sized at
  /// construction; kernels reshape entries via AssignZero, which reuses
  /// capacity, so nothing here allocates after construction (and for
  /// n <= 6 nothing allocates at all — the storage is inline).
  struct Scratch {
    Matrix phi;      // transition_fn result (time-varying models only)
    Matrix nn1;      // n x n temporaries
    Matrix nn2;
    Matrix nn3;
    Matrix nm1;      // P H^T
    Matrix nm2;      // K R
    Matrix k;        // gain (n x m)
    Matrix mm;       // S, LU-factored in place
    Vector mv1;      // H x / LU solve output
    Vector mv2;      // innovation
    Vector mv3;      // LU rhs
    Vector nv1;      // phi x / K y
    std::vector<size_t> pivots;
  };

  KalmanFilterOptions options_;
  Vector x_;
  Matrix p_;
  int64_t step_ = 0;

  // Observability (docs/observability.md): nullable sink + the identity
  // stamped on emitted events. Copied with the filter; owners re-wire
  // clones explicitly.
  TraceSink* obs_sink_ = nullptr;
  int32_t obs_source_ = 0;
  TraceActor obs_actor_ = TraceActor::kSourceFilter;
  Vector last_innovation_;
  Matrix identity_;  // I_n, hoisted out of the Joseph update

  // InnovationCovariance() and Nis() are logically const but share the
  // workspace; filters are single-threaded objects (one per source/shard).
  mutable Scratch scratch_;

  // Steady-state fast-path bookkeeping. The frozen cycle has period 1
  // (true Riccati fixed point) or 2 (the common exact 1-ulp limit cycle);
  // arrays are indexed by phase within the cycle.
  Phase phase_ = Phase::kInitial;
  SsMode ss_mode_ = SsMode::kTracking;
  int ss_streak1_ = 0;               // consecutive Corrects with P == P(-1)
  int ss_streak2_ = 0;               // consecutive Corrects with P == P(-2)
  int64_t predicts_since_correct_ = 0;
  int ss_have_prev_ = 0;             // how many previous post-P are valid
  Matrix ss_prev_post_[2];           // post-Correct P one/two Corrects ago
  Matrix ss_prev_gain_;              // gain of the previous Correct
  int ss_period_ = 1;                // cycle length while pending/armed
  int ss_pending_priors_ = 0;        // priors still to capture while pending
  int ss_capture_idx_ = 0;           // next prior slot to capture
  int ss_idx_ = 0;                   // cycle phase of the next Correct
  Matrix ss_gain_[2];                // frozen gains while armed
  Matrix ss_prior_p_[2];             // frozen a-priori covariance cycle
  Matrix ss_post_p_[2];              // frozen a-posteriori covariance cycle
};

}  // namespace dkf

#endif  // DKF_FILTER_KALMAN_FILTER_H_
