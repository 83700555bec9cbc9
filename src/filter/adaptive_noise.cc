#include "filter/adaptive_noise.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "models/state_model.h"

namespace dkf {
namespace {

bool DoubleBitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

Result<NoiseAdapter> NoiseAdapter::Create(const AdaptiveNoiseConfig& config,
                                          const StateModel& model) {
  if (!config.enabled) return NoiseAdapter();
  if (config.ratio_alpha <= 0.0 || config.ratio_alpha >= 1.0 ||
      config.corr_alpha <= 0.0 || config.corr_alpha >= 1.0) {
    return Status::InvalidArgument("adaptive: EWMA alphas must be in (0, 1)");
  }
  if (config.warmup_corrections < 1) {
    return Status::InvalidArgument("adaptive: warmup must be >= 1");
  }
  if (!(config.shrink_threshold > 0.0) ||
      !(config.widen_threshold > config.shrink_threshold)) {
    return Status::InvalidArgument(
        "adaptive: need 0 < shrink_threshold < widen_threshold");
  }
  if (!(config.widen_rate > 0.0) || config.widen_rate >= 1.0 ||
      !(config.shrink_rate > 0.0) || config.shrink_rate >= 1.0 ||
      !(config.q_rate > 0.0) || config.q_rate >= 1.0) {
    return Status::InvalidArgument("adaptive: rates must be in (0, 1)");
  }
  if (!(config.r_scale_floor > 0.0) ||
      !(config.r_scale_ceiling > config.r_scale_floor) ||
      !(config.q_scale_floor > 0.0) ||
      !(config.q_scale_ceiling > config.q_scale_floor)) {
    return Status::InvalidArgument(
        "adaptive: need 0 < scale floor < scale ceiling");
  }
  if (!(config.variance_floor >= 0.0)) {
    return Status::InvalidArgument("adaptive: variance floor must be >= 0");
  }
  if (config.holdover_gap < 0 || config.lock_streak < 1) {
    return Status::InvalidArgument(
        "adaptive: holdover_gap >= 0 and lock_streak >= 1 required");
  }
  const size_t m = model.options.measurement_noise.rows();
  if (m == 0 || model.options.measurement_noise.cols() != m) {
    return Status::InvalidArgument("adaptive: model has no measurement noise");
  }
  NoiseAdapter adapter;
  adapter.config_ = config;
  adapter.enabled_ = true;
  adapter.measurement_dim_ = m;
  adapter.nominal_q_ = model.options.process_noise;
  adapter.nominal_r_ = model.options.measurement_noise;
  adapter.prev_z_ = Vector(m);
  adapter.qstep_est_ = Vector(m);
  return adapter;
}

Result<NoiseAdapter::Decision> NoiseAdapter::OnCorrection(
    const KalmanFilter& filter, const Vector& z, int64_t tick) {
  Decision decision;
  if (!enabled_) return decision;
  if (z.size() != measurement_dim_) {
    return Status::InvalidArgument("adaptive: measurement width mismatch");
  }

  // Quantization-step estimate: running minimum nonzero per-component
  // reading delta. Uses transmitted values only, so both mirrors agree.
  if (has_prev_z_) {
    for (size_t i = 0; i < measurement_dim_; ++i) {
      const double diff = std::fabs(z[i] - prev_z_[i]);
      if (diff > 0.0 && std::isfinite(diff)) {
        qstep_est_[i] = qstep_est_[i] == 0.0 ? diff
                                             : std::min(qstep_est_[i], diff);
      }
    }
  }
  prev_z_ = z;
  has_prev_z_ = true;

  // Holdover: after a long silent gap (outage or a settled regime's
  // suppression run) the lag-1 statistic spans the gap and the first
  // innovation reflects accumulated drift — re-seed instead of adapting.
  const bool stale_gap = config_.holdover_gap > 0 &&
                         last_correction_tick_ >= 0 &&
                         tick - last_correction_tick_ > config_.holdover_gap;
  last_correction_tick_ = tick;
  if (stale_gap) {
    has_prev_v_ = false;
    decision.frozen = true;
    return decision;
  }

  // A-priori innovation statistics under the currently installed noise.
  const Vector predicted = filter.PredictedMeasurement();
  const Matrix s = filter.InnovationCovariance();
  double u = 0.0;  // mean normalized innovation squared
  double v = 0.0;  // mean normalized innovation
  for (size_t i = 0; i < measurement_dim_; ++i) {
    const double sii = s(i, i);
    if (!(sii > 0.0) || !std::isfinite(sii)) {
      // Degenerate covariance: never adapt off garbage.
      has_prev_v_ = false;
      decision.frozen = true;
      return decision;
    }
    const double y = z[i] - predicted[i];
    u += y * y / sii;
    v += y / std::sqrt(sii);
  }
  const double inv_m = 1.0 / static_cast<double>(measurement_dim_);
  u *= inv_m;
  v *= inv_m;

  count_ += 1;
  if (count_ == 1) {
    ratio_ewma_ = u;
    corr_ewma_ = 0.0;
  } else {
    ratio_ewma_ =
        config_.ratio_alpha * ratio_ewma_ + (1.0 - config_.ratio_alpha) * u;
    if (has_prev_v_) {
      corr_ewma_ = config_.corr_alpha * corr_ewma_ +
                   (1.0 - config_.corr_alpha) * (v * prev_v_);
    }
  }
  prev_v_ = v;
  has_prev_v_ = true;

  if (count_ <= config_.warmup_corrections) return decision;

  const double old_r = r_scale_;
  const double old_q = q_scale_;
  if (ratio_ewma_ > config_.widen_threshold) {
    // Innovations larger than modelled. Colored innovations mean the
    // state model is lagging (Q too small); white ones mean R too small.
    if (corr_ewma_ > config_.corr_q_threshold) {
      q_scale_ = std::min(q_scale_ * (1.0 + config_.q_rate),
                          config_.q_scale_ceiling);
    } else {
      r_scale_ = std::min(r_scale_ * (1.0 + config_.widen_rate),
                          config_.r_scale_ceiling);
    }
    lock_count_ = 0;
  } else if (ratio_ewma_ < config_.shrink_threshold) {
    // Modelled noise oversized: tighten R, relax Q back toward nominal.
    r_scale_ = std::max(r_scale_ * (1.0 - config_.shrink_rate),
                        config_.r_scale_floor);
    if (q_scale_ > 1.0) {
      q_scale_ = std::max(q_scale_ * (1.0 - config_.q_rate), 1.0);
    }
    lock_count_ = 0;
  } else {
    lock_count_ += 1;
  }
  decision.adapted =
      !DoubleBitEqual(r_scale_, old_r) || !DoubleBitEqual(q_scale_, old_q);
  return decision;
}

Matrix NoiseAdapter::EffectiveMeasurementNoise() const {
  Matrix r = nominal_r_;
  for (size_t i = 0; i < r.rows(); ++i) {
    double* row = r.MutableRowData(i);
    for (size_t j = 0; j < r.cols(); ++j) row[j] *= r_scale_;
  }
  for (size_t i = 0; i < r.rows(); ++i) {
    double floor = config_.variance_floor;
    if (config_.quantization_floor && qstep_est_.size() == r.rows() &&
        qstep_est_[i] > 0.0) {
      // Variance of uniform quantization error over one step.
      floor = std::max(floor, qstep_est_[i] * qstep_est_[i] / 12.0);
    }
    if (r(i, i) < floor) r(i, i) = floor;
  }
  return r;
}

Matrix NoiseAdapter::EffectiveProcessNoise() const {
  Matrix q = nominal_q_;
  for (size_t i = 0; i < q.rows(); ++i) {
    double* row = q.MutableRowData(i);
    for (size_t j = 0; j < q.cols(); ++j) row[j] *= q_scale_;
  }
  return q;
}

Status NoiseAdapter::InstallInto(KalmanFilter* filter) const {
  if (!enabled_ || filter == nullptr) return Status::OK();
  const Matrix r = EffectiveMeasurementNoise();
  if (!BitEqual(r, filter->measurement_noise_data())) {
    DKF_RETURN_IF_ERROR(filter->set_measurement_noise(r));
  }
  const Matrix q = EffectiveProcessNoise();
  if (!BitEqual(q, filter->process_noise_data())) {
    DKF_RETURN_IF_ERROR(filter->set_process_noise(q));
  }
  return Status::OK();
}

bool NoiseAdapter::Converged() const {
  return enabled_ && lock_count_ >= config_.lock_streak;
}

Vector NoiseAdapter::ExportState() const {
  if (!enabled_) return Vector();
  Vector state(kScalarFields + 2 * measurement_dim_);
  state[0] = static_cast<double>(count_);
  state[1] = ratio_ewma_;
  state[2] = corr_ewma_;
  state[3] = prev_v_;
  state[4] = has_prev_v_ ? 1.0 : 0.0;
  state[5] = r_scale_;
  state[6] = q_scale_;
  state[7] = static_cast<double>(last_correction_tick_);
  state[8] = static_cast<double>(lock_count_);
  state[9] = has_prev_z_ ? 1.0 : 0.0;
  for (size_t i = 0; i < measurement_dim_; ++i) {
    state[kScalarFields + i] = prev_z_[i];
    state[kScalarFields + measurement_dim_ + i] = qstep_est_[i];
  }
  return state;
}

Status NoiseAdapter::ImportState(const Vector& state) {
  if (!enabled_) {
    if (state.size() != 0) {
      return Status::FailedPrecondition(
          "adaptive: state payload for a disabled adapter");
    }
    return Status::OK();
  }
  if (state.size() == 0) {
    count_ = 0;
    ratio_ewma_ = 1.0;
    corr_ewma_ = 0.0;
    prev_v_ = 0.0;
    has_prev_v_ = false;
    r_scale_ = 1.0;
    q_scale_ = 1.0;
    last_correction_tick_ = -1;
    lock_count_ = 0;
    has_prev_z_ = false;
    prev_z_ = Vector(measurement_dim_);
    qstep_est_ = Vector(measurement_dim_);
    return Status::OK();
  }
  const size_t want = kScalarFields + 2 * measurement_dim_;
  if (state.size() != want) {
    return Status::InvalidArgument("adaptive: state payload size mismatch");
  }
  for (size_t i = 0; i < state.size(); ++i) {
    if (!std::isfinite(state[i])) {
      return Status::InvalidArgument("adaptive: non-finite state payload");
    }
  }
  if (!(state[0] >= 0.0) || !(state[5] > 0.0) || !(state[6] > 0.0)) {
    return Status::InvalidArgument("adaptive: implausible state payload");
  }
  count_ = static_cast<int64_t>(state[0]);
  ratio_ewma_ = state[1];
  corr_ewma_ = state[2];
  prev_v_ = state[3];
  has_prev_v_ = state[4] != 0.0;
  r_scale_ = state[5];
  q_scale_ = state[6];
  last_correction_tick_ = static_cast<int64_t>(state[7]);
  lock_count_ = static_cast<int64_t>(state[8]);
  has_prev_z_ = state[9] != 0.0;
  prev_z_ = Vector(measurement_dim_);
  qstep_est_ = Vector(measurement_dim_);
  for (size_t i = 0; i < measurement_dim_; ++i) {
    prev_z_[i] = state[kScalarFields + i];
    qstep_est_[i] = state[kScalarFields + measurement_dim_ + i];
  }
  return Status::OK();
}

bool NoiseAdapter::StateBitEqual(const NoiseAdapter& other) const {
  if (enabled_ != other.enabled_) return false;
  if (!enabled_) return true;
  return count_ == other.count_ &&
         DoubleBitEqual(ratio_ewma_, other.ratio_ewma_) &&
         DoubleBitEqual(corr_ewma_, other.corr_ewma_) &&
         DoubleBitEqual(prev_v_, other.prev_v_) &&
         has_prev_v_ == other.has_prev_v_ &&
         DoubleBitEqual(r_scale_, other.r_scale_) &&
         DoubleBitEqual(q_scale_, other.q_scale_) &&
         last_correction_tick_ == other.last_correction_tick_ &&
         lock_count_ == other.lock_count_ &&
         has_prev_z_ == other.has_prev_z_ &&
         BitEqual(prev_z_, other.prev_z_) &&
         BitEqual(qstep_est_, other.qstep_est_);
}

}  // namespace dkf
