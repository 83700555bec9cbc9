#include "models/nonlinear_models.h"

#include <cmath>

namespace dkf {

Result<ExtendedKalmanFilterOptions> MakeCoordinatedTurnModel(
    double dt, const NonlinearModelNoise& noise) {
  if (dt <= 0.0) return Status::InvalidArgument("dt must be positive");
  // Negated comparisons, so NaN is refused too.
  if (!(noise.process_variance >= 0.0) ||
      !(noise.measurement_variance > 0.0) || !(noise.initial_variance > 0.0) ||
      !std::isfinite(noise.process_variance) ||
      !std::isfinite(noise.measurement_variance) ||
      !std::isfinite(noise.initial_variance)) {
    return Status::InvalidArgument("invalid noise configuration");
  }

  ExtendedKalmanFilterOptions options;
  // State layout: [x, y, speed, heading, turn_rate].
  options.transition = [dt](const Vector& x, int64_t /*k*/) {
    Vector next(5);
    next[0] = x[0] + x[2] * std::cos(x[3]) * dt;
    next[1] = x[1] + x[2] * std::sin(x[3]) * dt;
    next[2] = x[2];
    next[3] = x[3] + x[4] * dt;
    next[4] = x[4];
    return next;
  };
  options.transition_jacobian = [dt](const Vector& x, int64_t /*k*/) {
    Matrix jac = Matrix::Identity(5);
    jac(0, 2) = std::cos(x[3]) * dt;
    jac(0, 3) = -x[2] * std::sin(x[3]) * dt;
    jac(1, 2) = std::sin(x[3]) * dt;
    jac(1, 3) = x[2] * std::cos(x[3]) * dt;
    jac(3, 4) = dt;
    return jac;
  };
  options.measurement = [](const Vector& x) {
    return Vector{x[0], x[1]};
  };
  options.measurement_jacobian = [](const Vector& /*x*/) {
    return Matrix{{1.0, 0.0, 0.0, 0.0, 0.0}, {0.0, 1.0, 0.0, 0.0, 0.0}};
  };
  options.process_noise = Matrix::ScaledIdentity(5, noise.process_variance);
  options.measurement_noise =
      Matrix::ScaledIdentity(2, noise.measurement_variance);
  options.initial_state = Vector(5);
  options.initial_covariance =
      Matrix::ScaledIdentity(5, noise.initial_variance);
  return options;
}

Result<UnscentedKalmanFilterOptions> MakeCoordinatedTurnUkf(
    double dt, const NonlinearModelNoise& noise) {
  auto ekf_or = MakeCoordinatedTurnModel(dt, noise);
  if (!ekf_or.ok()) return ekf_or.status();
  const ExtendedKalmanFilterOptions& ekf = ekf_or.value();
  UnscentedKalmanFilterOptions options;
  options.transition = ekf.transition;
  options.measurement = ekf.measurement;
  options.process_noise = ekf.process_noise;
  options.measurement_noise = ekf.measurement_noise;
  options.initial_state = ekf.initial_state;
  options.initial_covariance = ekf.initial_covariance;
  return options;
}

}  // namespace dkf
