#include "models/model_factory.h"

#include <cmath>

#include "common/string_util.h"

namespace dkf {

namespace {

// The negated comparisons refuse NaN too (every comparison against it
// is false); the finiteness checks refuse +inf.
Status ValidateNoise(const ModelNoise& noise) {
  if (!(noise.process_variance >= 0.0) ||
      !std::isfinite(noise.process_variance)) {
    return Status::InvalidArgument("process variance must be finite and >= 0");
  }
  if (!(noise.measurement_variance > 0.0) ||
      !std::isfinite(noise.measurement_variance)) {
    return Status::InvalidArgument(
        "measurement variance must be finite and > 0");
  }
  if (!(noise.initial_variance > 0.0) ||
      !std::isfinite(noise.initial_variance)) {
    return Status::InvalidArgument("initial variance must be finite and > 0");
  }
  return Status::OK();
}

// Factorial as a double (orders here are <= 4).
double Factorial(size_t n) {
  double out = 1.0;
  for (size_t i = 2; i <= n; ++i) out *= static_cast<double>(i);
  return out;
}

}  // namespace

Result<StateModel> MakeConstantModel(size_t dims, const ModelNoise& noise) {
  if (dims == 0) return Status::InvalidArgument("dims must be positive");
  DKF_RETURN_IF_ERROR(ValidateNoise(noise));
  StateModel model;
  model.name = "constant";
  model.measurement_dim = dims;
  model.options.transition = Matrix::Identity(dims);
  model.options.measurement = Matrix::Identity(dims);
  model.options.process_noise =
      Matrix::ScaledIdentity(dims, noise.process_variance);
  model.options.measurement_noise =
      Matrix::ScaledIdentity(dims, noise.measurement_variance);
  model.options.initial_state = Vector(dims);
  model.options.initial_covariance =
      Matrix::ScaledIdentity(dims, noise.initial_variance);
  return model;
}

Result<StateModel> MakeLinearModel(size_t axes, double dt,
                                   const ModelNoise& noise) {
  return MakePolynomialModel(axes, /*order=*/1, dt, noise);
}

Result<StateModel> MakePolynomialModel(size_t axes, size_t order, double dt,
                                       const ModelNoise& noise) {
  if (axes == 0) return Status::InvalidArgument("axes must be positive");
  if (order == 0 || order > 4) {
    return Status::InvalidArgument("order must be in [1, 4]");
  }
  if (dt <= 0.0) return Status::InvalidArgument("dt must be positive");
  DKF_RETURN_IF_ERROR(ValidateNoise(noise));

  const size_t per_axis = order + 1;  // derivatives 0..order
  const size_t n = axes * per_axis;
  StateModel model;
  model.name = order == 1 ? "linear" : StrFormat("poly%zu", order);
  model.measurement_dim = axes;

  // Block-diagonal Taylor transition: entry (i, j) within an axis block is
  // dt^{j-i} / (j-i)! for j >= i.
  Matrix phi(n, n);
  for (size_t axis = 0; axis < axes; ++axis) {
    const size_t base = axis * per_axis;
    for (size_t i = 0; i < per_axis; ++i) {
      for (size_t j = i; j < per_axis; ++j) {
        phi(base + i, base + j) =
            std::pow(dt, static_cast<double>(j - i)) / Factorial(j - i);
      }
    }
  }
  model.options.transition = phi;

  // Measurement picks the 0th derivative of each axis (paper eq. 16).
  Matrix h(axes, n);
  for (size_t axis = 0; axis < axes; ++axis) {
    h(axis, axis * per_axis) = 1.0;
  }
  model.options.measurement = h;

  model.options.process_noise =
      Matrix::ScaledIdentity(n, noise.process_variance);
  model.options.measurement_noise =
      Matrix::ScaledIdentity(axes, noise.measurement_variance);
  model.options.initial_state = Vector(n);
  model.options.initial_covariance =
      Matrix::ScaledIdentity(n, noise.initial_variance);
  return model;
}

Result<StateModel> MakeSinusoidalModel(double omega, double theta,
                                       double gamma, const ModelNoise& noise) {
  if (omega == 0.0) {
    return Status::InvalidArgument("omega must be non-zero");
  }
  DKF_RETURN_IF_ERROR(ValidateNoise(noise));
  StateModel model;
  model.name = "sinusoidal";
  model.measurement_dim = 1;
  // Time-varying phi_k (paper eq. 17): the off-diagonal term carries the
  // known phase of the seasonal component while the state s tracks its
  // amplitude online.
  model.options.transition_fn = [omega, theta, gamma](int64_t k) {
    Matrix phi = Matrix::Identity(2);
    phi(0, 1) = gamma * std::cos(omega * static_cast<double>(k) + theta);
    return phi;
  };
  model.options.measurement = Matrix{{1.0, 0.0}};  // eq. 18
  model.options.process_noise =
      Matrix::ScaledIdentity(2, noise.process_variance);
  model.options.measurement_noise =
      Matrix::ScaledIdentity(1, noise.measurement_variance);
  model.options.initial_state = Vector(2);
  model.options.initial_covariance =
      Matrix::ScaledIdentity(2, noise.initial_variance);
  return model;
}

Result<StateModel> MakeSmoothingModel(double smoothing_factor,
                                      double measurement_variance) {
  if (!(smoothing_factor > 0.0) || !std::isfinite(smoothing_factor)) {
    return Status::InvalidArgument(
        "smoothing factor F must be finite and positive");
  }
  if (!(measurement_variance > 0.0) || !std::isfinite(measurement_variance)) {
    return Status::InvalidArgument(
        "measurement variance must be finite and positive");
  }
  StateModel model;
  model.name = StrFormat("smoothing(F=%g)", smoothing_factor);
  model.measurement_dim = 1;
  model.options.transition = Matrix::Identity(1);
  model.options.measurement = Matrix::Identity(1);
  model.options.process_noise = Matrix{{smoothing_factor}};
  model.options.measurement_noise = Matrix{{measurement_variance}};
  model.options.initial_state = Vector(1);
  model.options.initial_covariance = Matrix{{100.0}};
  return model;
}

Result<StateModel> MakeMeanRevertingModel(double rho,
                                          const ModelNoise& noise) {
  if (rho <= 0.0 || rho >= 1.0) {
    return Status::InvalidArgument("rho must be in (0, 1)");
  }
  DKF_RETURN_IF_ERROR(ValidateNoise(noise));
  StateModel model;
  model.name = StrFormat("mean-reverting(rho=%g)", rho);
  model.measurement_dim = 1;
  model.options.transition = Matrix{{rho, 1.0 - rho}, {0.0, 1.0}};
  model.options.measurement = Matrix{{1.0, 0.0}};
  // The level state mu drifts much more slowly than x fluctuates.
  Matrix q(2, 2);
  q(0, 0) = noise.process_variance;
  q(1, 1) = noise.process_variance * 1e-3;
  model.options.process_noise = q;
  model.options.measurement_noise =
      Matrix{{noise.measurement_variance}};
  model.options.initial_state = Vector(2);
  model.options.initial_covariance =
      Matrix::ScaledIdentity(2, noise.initial_variance);
  return model;
}

}  // namespace dkf
