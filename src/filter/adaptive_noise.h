#ifndef DKF_FILTER_ADAPTIVE_NOISE_H_
#define DKF_FILTER_ADAPTIVE_NOISE_H_

#include <cstdint>

#include "common/result.h"
#include "common/status.h"
#include "filter/kalman_filter.h"
#include "linalg/matrix.h"

namespace dkf {

struct StateModel;

/// Tunables of the online Q/R servo (docs/adaptive.md). Defaults are the
/// production recipe: fast-ish R reaction, slow Q reaction, generous
/// clamps. `enabled = false` keeps every filter on its fixed nominal
/// noise, bit-identical to the pre-adaptive engine.
struct AdaptiveNoiseConfig {
  /// Master switch. Off by default so existing configurations, golden
  /// traces, and pre-v4 snapshots behave exactly as before.
  bool enabled = false;

  /// EWMA retention for the normalized-innovation-squared ratio
  /// E[y^2 / S]. Must be in (0, 1); higher = slower, smoother.
  double ratio_alpha = 0.9;

  /// EWMA retention for the lag-1 normalized-innovation correlation that
  /// discriminates Q-misfit (colored innovations) from R-misfit (white
  /// but wrongly sized innovations).
  double corr_alpha = 0.9;

  /// Corrections observed before any scale is allowed to move; the EWMA
  /// state needs this many samples to mean anything.
  int64_t warmup_corrections = 8;

  /// Ratio above which the filter is under-modelling its noise and the
  /// servo widens (R by default, Q when innovations are colored).
  double widen_threshold = 1.8;

  /// Ratio below which the modelled noise is oversized and the servo
  /// shrinks R (and relaxes Q back toward nominal).
  double shrink_threshold = 0.5;

  /// Per-correction multiplicative step applied when widening R.
  double widen_rate = 0.08;

  /// Per-correction multiplicative step applied when shrinking R.
  double shrink_rate = 0.03;

  /// Clamp on the R multiplier, relative to nominal R.
  double r_scale_floor = 0.05;
  double r_scale_ceiling = 50.0;

  /// Lag-1 correlation magnitude above which a widen is attributed to
  /// process (Q) misfit instead of measurement (R) misfit.
  double corr_q_threshold = 0.35;

  /// Per-correction relative step for the (deliberately slow) Q servo.
  double q_rate = 0.02;

  /// Clamp on the Q multiplier, relative to nominal Q.
  double q_scale_floor = 0.1;
  double q_scale_ceiling = 50.0;

  /// Absolute floor applied to every effective-R diagonal, guarding
  /// against a degenerate (singular) measurement noise.
  double variance_floor = 1e-9;

  /// When true, effective-R diagonals are additionally floored at
  /// step^2 / 12 — the variance of uniform quantization error — where
  /// `step` is the smallest nonzero reading delta seen so far. Stops the
  /// filter from trusting quantized readings below their resolution.
  bool quantization_floor = true;

  /// Corrections separated by more than this many ticks carry stale
  /// innovation statistics (outage, long suppression run after a regime
  /// settled): the first correction after such a gap re-seeds the lag-1
  /// state and is not adapted on. 0 disables holdover detection.
  int64_t holdover_gap = 64;

  /// Consecutive in-dead-band corrections after which the servo reports
  /// Converged() — the fleet engine's re-absorption gate.
  int64_t lock_streak = 24;
};

/// O(1)-state innovation-based Q/R servo for one Kalman filter.
///
/// The estimator watches corrections only — never suppressed readings —
/// so a source-side mirror and a server-side filter running identical
/// NoiseAdapter instances over the *transmitted* corrections adapt
/// bit-identically (the DKF mirror-consistency contract, docs/adaptive.md).
/// All state is a handful of scalars plus two measurement-width vectors;
/// nothing allocates per correction for measurement widths <= 6.
class NoiseAdapter {
 public:
  /// A disabled adapter: every call is a cheap no-op. Lets callers embed
  /// the adapter by value without optionality gymnastics.
  NoiseAdapter() = default;

  /// Builds an adapter for filters instantiated from `model`, capturing
  /// the model's nominal Q and R as the adaptation baseline. Errors on
  /// nonsensical configuration.
  static Result<NoiseAdapter> Create(const AdaptiveNoiseConfig& config,
                                     const StateModel& model);

  bool enabled() const { return enabled_; }

  /// What OnCorrection decided for one correction.
  struct Decision {
    bool adapted = false;  ///< a scale moved; InstallInto may change Q/R
    bool frozen = false;   ///< holdover gap detected; statistics re-seeded
  };

  /// Feeds one transmitted correction. Must be called with the filter in
  /// its *pre-correct* state (after Predict, before Correct) so the
  /// innovation y = z - H x and its covariance S = H P H^T + R are the
  /// textbook a-priori quantities; call filter.Correct(z) afterwards and
  /// then InstallInto() to publish any new effective Q/R.
  ///
  /// Deterministic: equal call sequences on equal states yield bit-equal
  /// adapter states — the basis of mirror consistency.
  Result<Decision> OnCorrection(const KalmanFilter& filter, const Vector& z,
                                int64_t tick);

  /// Installs the current effective Q/R into `filter`, skipping the
  /// setter (and its steady-state fast-path disarm) when the installed
  /// matrix is already bit-identical.
  Status InstallInto(KalmanFilter* filter) const;

  /// Effective noise under the current scales: R is nominal R scaled by
  /// r_scale with diagonals floored (variance floor + quantization
  /// floor); Q is nominal Q scaled by q_scale.
  Matrix EffectiveMeasurementNoise() const;
  Matrix EffectiveProcessNoise() const;

  /// True once `lock_streak` consecutive corrections landed in the dead
  /// band — the scales have stopped moving.
  bool Converged() const;

  double r_scale() const { return r_scale_; }
  double q_scale() const { return q_scale_; }
  int64_t corrections() const { return count_; }

  /// Flat serialization of the mutable adapter state (not the config or
  /// the nominal matrices, which both ends share by construction). Rides
  /// in kResync messages (Message::resync_adapt) and in snapshot-v4
  /// checkpoints. Empty when the adapter is disabled.
  Vector ExportState() const;

  /// Restores a peer's exported state bit-exactly; an empty vector
  /// resets to the initial state. Errors on malformed payloads (wrong
  /// length, non-finite values) so a corrupted-but-checksum-colliding
  /// frame cannot poison the servo.
  Status ImportState(const Vector& state);

  /// Bitwise equality of the mutable state — the adaptive half of the
  /// mirror-consistency predicate.
  bool StateBitEqual(const NoiseAdapter& other) const;

 private:
  static constexpr int64_t kScalarFields = 10;

  AdaptiveNoiseConfig config_;
  bool enabled_ = false;
  size_t measurement_dim_ = 0;
  Matrix nominal_q_;
  Matrix nominal_r_;

  // Mutable state (everything ExportState ships).
  int64_t count_ = 0;           ///< corrections observed
  double ratio_ewma_ = 1.0;     ///< EWMA of mean(y_i^2 / S_ii)
  double corr_ewma_ = 0.0;      ///< EWMA of v_k * v_{k-1}
  double prev_v_ = 0.0;         ///< previous mean normalized innovation
  bool has_prev_v_ = false;
  double r_scale_ = 1.0;
  double q_scale_ = 1.0;
  int64_t last_correction_tick_ = -1;
  int64_t lock_count_ = 0;
  bool has_prev_z_ = false;
  Vector prev_z_;     ///< previous transmitted reading (qstep estimation)
  Vector qstep_est_;  ///< per-component min nonzero |z_k - z_{k-1}|
};

}  // namespace dkf

#endif  // DKF_FILTER_ADAPTIVE_NOISE_H_
