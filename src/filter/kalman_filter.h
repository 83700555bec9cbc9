#ifndef DKF_FILTER_KALMAN_FILTER_H_
#define DKF_FILTER_KALMAN_FILTER_H_

#include <cstddef>
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

/// Where each piece of a filter's running state lives, as offsets in
/// doubles, for state dimension n and measurement dimension m. The
/// segment order is the one definition of the layout, shared by
/// KalmanFilter's block, FullState import/export and the fleet's cold
/// records:
///
///   x (n) | P (n x n) | Q (n x n) | R (m x m) | ss_prev_post[0], [1]
///   (n x n each) | ss_prev_gain (n x m) | ss_gain[0], [1] (n x m each) |
///   ss_prior_p[0], [1] (n x n each) | ss_post_p[0], [1] (n x n each) |
///   last_innovation (m)
///
/// So [x, prev_post[0]) is everything a tracking-mode predict reads,
/// [q, innovation) is the *cold segment* a batched fleet lane shares with
/// its group, and [x, end) is every value of a FullState.
struct KalmanStateLayout {
  /// Offsets start at `begin`.
  KalmanStateLayout(size_t n, size_t m, size_t begin = 0);

  size_t n = 0;
  size_t m = 0;
  size_t x = 0;
  size_t p = 0;
  size_t q = 0;
  size_t r = 0;
  size_t prev_post[2] = {0, 0};
  size_t prev_gain = 0;
  size_t gain[2] = {0, 0};
  size_t prior_p[2] = {0, 0};
  size_t post_p[2] = {0, 0};
  size_t innovation = 0;
  size_t end = 0;

  size_t cold_size() const { return innovation - q; }
};

/// Discrete Kalman filter over double-valued states.
///
/// Usage per tick: call Predict() once (propagates the estimate through
/// phi_k and inflates the covariance by Q), read PredictedMeasurement(),
/// and call Correct(z) only when a measurement is available. Skipping
/// Correct leaves the filter coasting on the model — exactly the behaviour
/// the DKF protocol exploits when an update is suppressed.
///
/// Storage: one exact-size block of doubles, sized from (n, m) at Create,
/// holds the model constants (phi, H, x_0, P_0), the running state in
/// KalmanStateLayout order, and the scratch the raw kernels of
/// linalg/kernels.h work in. Besides it the filter keeps only its scalars,
/// the optional transition callback and the LU pivots, so a Predict+Correct
/// cycle performs zero heap allocations at any dimension (pinned by
/// tests/filter/fast_path_test.cc; see docs/perf.md). Copies deep-copy the
/// block; moves steal it.
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
  /// covariance is not invertible, leaving the running state untouched.
  Status Correct(const Vector& z);

  /// Current state estimate (a-priori right after Predict, a-posteriori
  /// right after Correct).
  Vector state() const { return VectorAt(at_.state.x, at_.state.n); }

  /// Current error covariance.
  Matrix covariance() const {
    return MatrixAt(at_.state.p, at_.state.n, at_.state.n);
  }

  /// Number of Predict() calls so far.
  int64_t step() const { return step_; }

  size_t state_dim() const { return at_.state.n; }
  size_t measurement_dim() const { return at_.state.m; }

  /// Innovation z - Hx from the most recent Correct (empty before the
  /// first correction).
  Vector last_innovation() const;

  /// Innovation covariance S = H P H^T + R at the current state.
  Matrix InnovationCovariance() const;

  /// The uncertainty of the answer PredictedMeasurement() gives: the
  /// state covariance projected into measurement space, H P H^T,
  /// computed as S - R and symmetrized. (It deliberately excludes R: it
  /// is the uncertainty of the answer, not of a new sensor reading.)
  Matrix AnswerCovariance() const;

  /// Component 0 of PredictedMeasurement() and entry (0, 0) of
  /// AnswerCovariance(), bit-identical, without building either.
  double PredictedMeasurement0() const;
  double AnswerVariance0() const;

  /// The answer kernels: the arithmetic of the members above, over raw
  /// row-major H (m x n), x (n), P (n x n) and R (m x m). The members run
  /// them on the filter's block, and the batched fleet engine on a
  /// resident lane's columns, so both answer with the same operations in
  /// the same order.

  /// out (m) = H x; m = 1 gives component 0.
  static void PredictedMeasurementInto(const double* h, const double* x,
                                       size_t n, size_t m, double* out);

  /// s (m x m) = H (P H^T) + R, with P H^T left in `ph` (n x m). P is
  /// kept exactly symmetric, so P H^T is (H P)^T entry for entry.
  static void InnovationCovarianceInto(const double* h, const double* p,
                                       const double* r, size_t n, size_t m,
                                       double* ph, double* s);

  /// out (m x m) = Symmetrize(S - R), S from InnovationCovarianceInto
  /// (`ph` as there).
  static void AnswerCovarianceInto(const double* h, const double* p,
                                   const double* r, size_t n, size_t m,
                                   double* ph, double* out);

  /// Entry (0, 0) of AnswerCovarianceInto's out, read in place with no
  /// scratch: S(0, 0) - R(0, 0) (symmetrizing leaves the diagonal alone).
  static double AnswerVariance0(const double* h, const double* p,
                                const double* r, size_t n);

  /// Normalized innovation squared y^T S^{-1} y for measurement z — the
  /// chi-squared consistency statistic used by outlier detection, model
  /// switching, and adaptive sampling. Factor-and-solve, no inverse.
  Result<double> Nis(const Vector& z) const;

  /// Replaces Q (used by the adaptive noise servo and the smoothing
  /// factor F knob). Must keep the (n x n) shape. Disarms the steady-state
  /// fast path.
  Status set_process_noise(const Matrix& q);

  /// Replaces R. Must keep the (m x m) shape. Disarms the steady-state
  /// fast path.
  Status set_measurement_noise(const Matrix& r);

  Matrix process_noise() const {
    return MatrixAt(at_.state.q, at_.state.n, at_.state.n);
  }
  Matrix measurement_noise() const {
    return MatrixAt(at_.state.r, at_.state.m, at_.state.m);
  }

  /// Q (n x n) and R (m x m), row-major, read in place: the per-tick
  /// readers' view, which copies no Matrix.
  const double* process_noise_data() const { return At(at_.state.q); }
  const double* measurement_noise_data() const { return At(at_.state.r); }

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
  /// equal in every field, decided in place without building either copy:
  /// the scalars, then the whole state range of the block. Unlike
  /// StateEquals this tells -0.0 from 0.0. PredictStateBitEquals falls
  /// back to it outside tracking mode.
  bool FullStateBitEquals(const KalmanFilter& other) const;

  /// The batched fleet engine's absorb test (docs/fleet.md, "The resync
  /// asymmetry"): true when a run of uncorrected Predicts evolves both
  /// filters identically. In tracking mode a Predict reads and writes
  /// only x, P, the step and cadence counters and Q, so those — plus the
  /// phase, ss_idx and R a lane keeps once for both ends, the contiguous
  /// x..R range — must be bit equal, while the convergence history, the
  /// dormant frozen cycle, predicts_since_correct and last_innovation may
  /// differ (a resync's ImportState resets them on one end only). When
  /// either filter is not tracking, this is FullStateBitEquals.
  bool PredictStateBitEquals(const KalmanFilter& other) const;

  /// Everything that distinguishes a running filter from a freshly
  /// constructed one with the same model recipe: estimate, covariance,
  /// step/phase counters, the current (possibly reconfigured) Q and R, and
  /// the complete steady-state fast-path bookkeeping including the frozen
  /// gain/covariance cycle. Restoring it via ImportFullState continues the
  /// filter bit-identically — unlike the resync-oriented ImportState, which
  /// deliberately disarms the fast path. Scratch is excluded: it never
  /// carries state across calls. The snapshot and API value type; the
  /// filter itself stores these values in KalmanStateLayout order. Used by
  /// src/checkpoint/.
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
  /// untouched) when any dimension disagrees with this filter's model, an
  /// enum value is out of range, or any matrix or vector carries a
  /// non-finite value (every later Predict would fail on it). Q/R are
  /// assigned directly — this is a state restore, not a reconfiguration,
  /// so the fast path is *not* disarmed.
  Status ImportFullState(const FullState& full);

  /// Copies the cold segment of `full` (Q through ss_post_p[1]) into
  /// `cold`, `layout.cold_size()` doubles in KalmanStateLayout order.
  /// `full` must have the layout's shapes (as ExportFullState produces).
  static void PackCold(const FullState& full, const KalmanStateLayout& layout,
                       double* cold);

  /// The inverse of PackCold: sets the cold matrices of `full`.
  static void UnpackCold(const double* cold, const KalmanStateLayout& layout,
                         FullState* full);

  /// Wires an observability sink: fast-path freeze/disarm transitions are
  /// emitted as trace events tagged (source_id, actor). Pass nullptr to
  /// unwire. Observation only — never alters filter arithmetic.
  void set_trace(TraceSink* sink, int32_t source_id, TraceActor actor) {
    obs_sink_ = sink;
    obs_source_ = source_id;
    obs_actor_ = actor;
  }

 private:
  /// Absolute offsets, in doubles, of every segment of the block: the
  /// constants, the running state (KalmanStateLayout order) and the
  /// scratch, worked out once from (n, m).
  struct BlockLayout {
    BlockLayout(size_t n, size_t m);

    size_t phi = 0;  // n x n; a transition_fn result is copied in per step
    size_t h = 0;    // m x n
    size_t x0 = 0;   // n
    size_t p0 = 0;   // n x n
    KalmanStateLayout state;
    size_t nn1 = 0;  // n x n temporaries
    size_t nn2 = 0;
    size_t nn3 = 0;
    size_t nm = 0;   // P H^T, then K R
    size_t k = 0;    // gain (n x m)
    size_t mm = 0;   // S, LU-factored in place
    size_t mv1 = 0;  // H x / LU solve output
    size_t mv2 = 0;  // innovation
    size_t nv = 0;   // phi x / K y
    size_t size = 0;
  };

  KalmanFilter(const KalmanFilterOptions& options, size_t n, size_t m);

  /// The block entry at `offset`.
  double* At(size_t offset) const { return block_.data() + offset; }

  /// Copies of `rows` x `cols` (or `size`) block entries at `offset`.
  Matrix MatrixAt(size_t offset, size_t rows, size_t cols) const;
  Vector VectorAt(size_t offset, size_t size) const;

  /// Copies transition_fn's matrix for `step` into the phi slot
  /// (time-varying models only). Errors when it has the wrong shape.
  Status LoadTransition(int64_t step);

  /// S = H P H^T + R into the mm slot, with P H^T left in the nm slot.
  void InnovationCovarianceInto() const;

  /// Sets or clears last_innovation (clearing zeroes its segment, so the
  /// block compares bit for bit).
  void SetInnovation(const double* innovation);

  /// Where the filter sits in the Predict/Correct cadence — the guard the
  /// steady-state fast path uses to detect coasting (Predict,Predict) and
  /// other cadence breaks that move the covariance off its fixed cycle.
  enum class Phase : uint8_t { kInitial, kPredicted, kCorrected };

  /// Steady-state fast-path mode: tracking convergence, waiting for the
  /// next Predict(s) to capture the a-priori covariance cycle, or armed.
  enum class SsMode : uint8_t { kTracking, kArmPending, kArmed };

  /// Leaves the fast path and restarts convergence tracking.
  void DisarmSteadyState();

  /// True when the scalars FullStateBitEquals compares are equal.
  bool ScalarsEqual(const KalmanFilter& other) const;

  BlockLayout at_;
  // The block (copies deep-copy it, moves steal it) and the LU row
  // permutation (m). Scratch in both is written from const methods
  // (InnovationCovariance, Nis): filters are single-threaded objects, one
  // per source/shard, and scratch never carries state across calls.
  mutable std::vector<double> block_;
  mutable std::vector<size_t> pivots_;

  // The options that are not values in the block.
  std::function<Matrix(int64_t)> transition_fn_;
  bool steady_state_fast_path_ = true;
  double steady_state_tolerance_ = 0.0;

  int64_t step_ = 0;
  bool has_innovation_ = false;

  // Observability (docs/observability.md): nullable sink + the identity
  // stamped on emitted events. Copied with the filter; owners re-wire
  // clones explicitly.
  TraceSink* obs_sink_ = nullptr;
  int32_t obs_source_ = 0;
  TraceActor obs_actor_ = TraceActor::kSourceFilter;

  // Steady-state fast-path bookkeeping. The frozen cycle has period 1
  // (true Riccati fixed point) or 2 (the common exact 1-ulp limit cycle);
  // its matrices live in the block, indexed by phase within the cycle.
  Phase phase_ = Phase::kInitial;
  SsMode ss_mode_ = SsMode::kTracking;
  int ss_streak1_ = 0;               // consecutive Corrects with P == P(-1)
  int ss_streak2_ = 0;               // consecutive Corrects with P == P(-2)
  int64_t predicts_since_correct_ = 0;
  int ss_have_prev_ = 0;             // how many previous post-P are valid
  int ss_period_ = 1;                // cycle length while pending/armed
  int ss_pending_priors_ = 0;        // priors still to capture while pending
  int ss_capture_idx_ = 0;           // next prior slot to capture
  int ss_idx_ = 0;                   // cycle phase of the next Correct
};

}  // namespace dkf

#endif  // DKF_FILTER_KALMAN_FILTER_H_
