#include "linalg/decompose.h"

#include <cmath>

#include "common/string_util.h"

namespace dkf {

namespace {

// Pivots below this magnitude are treated as singular. The library's
// matrices are tiny and well-scaled (covariances near unity), so an
// absolute threshold is adequate.
constexpr double kSingularTolerance = 1e-13;

}  // namespace

Status LuFactorInPlace(double* lu, size_t n, size_t* pivots,
                       int* pivot_sign) {
  int sign = 1;
  for (size_t i = 0; i < n; ++i) pivots[i] = i;

  for (size_t col = 0; col < n; ++col) {
    // Partial pivot: largest magnitude entry on/below the diagonal.
    size_t pivot_row = col;
    double pivot_mag = std::fabs(lu[col * n + col]);
    for (size_t r = col + 1; r < n; ++r) {
      const double mag = std::fabs(lu[r * n + col]);
      if (mag > pivot_mag) {
        pivot_mag = mag;
        pivot_row = r;
      }
    }
    if (pivot_mag < kSingularTolerance) {
      return Status::FailedPrecondition("matrix is numerically singular");
    }
    if (pivot_row != col) {
      for (size_t c = 0; c < n; ++c) {
        std::swap(lu[pivot_row * n + c], lu[col * n + c]);
      }
      std::swap(pivots[pivot_row], pivots[col]);
      sign = -sign;
    }
    const double pivot = lu[col * n + col];
    for (size_t r = col + 1; r < n; ++r) {
      const double factor = lu[r * n + col] / pivot;
      lu[r * n + col] = factor;
      for (size_t c = col + 1; c < n; ++c) {
        lu[r * n + c] -= factor * lu[col * n + c];
      }
    }
  }
  if (pivot_sign != nullptr) *pivot_sign = sign;
  return Status::OK();
}

void LuSolveInto(const double* lu, size_t n, const size_t* pivots,
                 const double* b, double* x) {
  // Apply permutation, then forward/back substitution.
  for (size_t i = 0; i < n; ++i) x[i] = b[pivots[i]];
  for (size_t i = 1; i < n; ++i) {
    double sum = x[i];
    for (size_t j = 0; j < i; ++j) sum -= lu[i * n + j] * x[j];
    x[i] = sum;
  }
  for (size_t ii = n; ii > 0; --ii) {
    const size_t i = ii - 1;
    double sum = x[i];
    for (size_t j = i + 1; j < n; ++j) sum -= lu[i * n + j] * x[j];
    x[i] = sum / lu[i * n + i];
  }
}

Status LuFactorInPlace(Matrix* a, std::vector<size_t>* pivots,
                       int* pivot_sign) {
  if (a->rows() != a->cols()) {
    return Status::InvalidArgument(
        StrFormat("LU of non-square %zux%zu matrix", a->rows(), a->cols()));
  }
  pivots->resize(a->rows());
  return LuFactorInPlace(a->data(), a->rows(), pivots->data(), pivot_sign);
}

Status LuSolveInto(const Matrix& lu, const std::vector<size_t>& pivots,
                   const Vector& b, Vector* x) {
  const size_t n = lu.rows();
  if (b.size() != n) {
    return Status::InvalidArgument(
        StrFormat("rhs size %zu, matrix order %zu", b.size(), n));
  }
  x->AssignZero(n);
  LuSolveInto(lu.data(), n, pivots.data(), b.data(), x->data());
  return Status::OK();
}

Result<LuDecomposition> LuDecomposition::Compute(const Matrix& a) {
  Matrix lu = a;
  std::vector<size_t> pivots;
  int pivot_sign = 1;
  DKF_RETURN_IF_ERROR(LuFactorInPlace(&lu, &pivots, &pivot_sign));
  return LuDecomposition(std::move(lu), std::move(pivots), pivot_sign);
}

Result<Vector> LuDecomposition::Solve(const Vector& b) const {
  Vector x;
  DKF_RETURN_IF_ERROR(LuSolveInto(lu_, pivots_, b, &x));
  return x;
}

Result<Matrix> LuDecomposition::Solve(const Matrix& b) const {
  const size_t n = lu_.rows();
  if (b.rows() != n) {
    return Status::InvalidArgument(
        StrFormat("rhs has %zu rows, matrix order %zu", b.rows(), n));
  }
  Matrix x(n, b.cols());
  for (size_t c = 0; c < b.cols(); ++c) {
    auto col_or = Solve(b.Col(c));
    if (!col_or.ok()) return col_or.status();
    const Vector& col = col_or.value();
    for (size_t r = 0; r < n; ++r) x(r, c) = col[r];
  }
  return x;
}

Result<Matrix> LuDecomposition::Inverse() const {
  return Solve(Matrix::Identity(lu_.rows()));
}

double LuDecomposition::Determinant() const {
  double det = pivot_sign_;
  for (size_t i = 0; i < lu_.rows(); ++i) det *= lu_(i, i);
  return det;
}

Result<CholeskyDecomposition> CholeskyDecomposition::Compute(const Matrix& a) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument(
        StrFormat("Cholesky of non-square %zux%zu matrix", a.rows(),
                  a.cols()));
  }
  const size_t n = a.rows();
  Matrix l(n, n);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c <= r; ++c) {
      double sum = a(r, c);
      for (size_t k = 0; k < c; ++k) sum -= l(r, k) * l(c, k);
      if (r == c) {
        if (sum <= 0.0) {
          return Status::FailedPrecondition(
              "matrix is not positive definite");
        }
        l(r, c) = std::sqrt(sum);
      } else {
        l(r, c) = sum / l(c, c);
      }
    }
  }
  return CholeskyDecomposition(std::move(l));
}

Result<Vector> CholeskyDecomposition::Solve(const Vector& b) const {
  const size_t n = l_.rows();
  if (b.size() != n) {
    return Status::InvalidArgument(
        StrFormat("rhs size %zu, matrix order %zu", b.size(), n));
  }
  // L y = b, then L^T x = y.
  Vector y(n);
  for (size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (size_t j = 0; j < i; ++j) sum -= l_(i, j) * y[j];
    y[i] = sum / l_(i, i);
  }
  Vector x(n);
  for (size_t ii = n; ii > 0; --ii) {
    const size_t i = ii - 1;
    double sum = y[i];
    for (size_t j = i + 1; j < n; ++j) sum -= l_(j, i) * x[j];
    x[i] = sum / l_(i, i);
  }
  return x;
}

Result<Matrix> CholeskyDecomposition::Inverse() const {
  const size_t n = l_.rows();
  Matrix inv(n, n);
  const Matrix identity = Matrix::Identity(n);
  for (size_t c = 0; c < n; ++c) {
    auto col_or = Solve(identity.Col(c));
    if (!col_or.ok()) return col_or.status();
    const Vector& col = col_or.value();
    for (size_t r = 0; r < n; ++r) inv(r, c) = col[r];
  }
  return inv;
}

double CholeskyDecomposition::LogDeterminant() const {
  double sum = 0.0;
  for (size_t i = 0; i < l_.rows(); ++i) sum += std::log(l_(i, i));
  return 2.0 * sum;
}

Result<Vector> SolveLeastSquares(const Matrix& a, const Vector& b) {
  const size_t m = a.rows();
  const size_t n = a.cols();
  if (m < n) {
    return Status::InvalidArgument(
        StrFormat("least squares needs rows >= cols, got %zux%zu", m, n));
  }
  if (b.size() != m) {
    return Status::InvalidArgument(
        StrFormat("rhs size %zu, expected %zu", b.size(), m));
  }

  // Householder QR, applying reflections to a copy of b as we go.
  Matrix r = a;
  Vector rhs = b;
  for (size_t col = 0; col < n; ++col) {
    // Build the Householder vector for column `col`.
    double norm = 0.0;
    for (size_t i = col; i < m; ++i) norm += r(i, col) * r(i, col);
    norm = std::sqrt(norm);
    if (norm < kSingularTolerance) {
      return Status::FailedPrecondition("matrix is column-rank deficient");
    }
    const double alpha = r(col, col) >= 0.0 ? -norm : norm;
    Vector v(m);
    v[col] = r(col, col) - alpha;
    for (size_t i = col + 1; i < m; ++i) v[i] = r(i, col);
    double v_dot = 0.0;
    for (size_t i = col; i < m; ++i) v_dot += v[i] * v[i];
    if (v_dot < kSingularTolerance * kSingularTolerance) continue;

    // Apply H = I - 2 v v^T / (v^T v) to remaining columns and rhs.
    for (size_t c = col; c < n; ++c) {
      double dot = 0.0;
      for (size_t i = col; i < m; ++i) dot += v[i] * r(i, c);
      const double scale = 2.0 * dot / v_dot;
      for (size_t i = col; i < m; ++i) r(i, c) -= scale * v[i];
    }
    double dot = 0.0;
    for (size_t i = col; i < m; ++i) dot += v[i] * rhs[i];
    const double scale = 2.0 * dot / v_dot;
    for (size_t i = col; i < m; ++i) rhs[i] -= scale * v[i];
  }

  // Back substitution on the upper-triangular leading block.
  Vector x(n);
  for (size_t ii = n; ii > 0; --ii) {
    const size_t i = ii - 1;
    double sum = rhs[i];
    for (size_t j = i + 1; j < n; ++j) sum -= r(i, j) * x[j];
    if (std::fabs(r(i, i)) < kSingularTolerance) {
      return Status::FailedPrecondition("matrix is column-rank deficient");
    }
    x[i] = sum / r(i, i);
  }
  return x;
}

Result<Matrix> Inverse(const Matrix& a) {
  auto lu_or = LuDecomposition::Compute(a);
  if (!lu_or.ok()) return lu_or.status();
  return lu_or.value().Inverse();
}

Result<Vector> SolveLinear(const Matrix& a, const Vector& b) {
  auto lu_or = LuDecomposition::Compute(a);
  if (!lu_or.ok()) return lu_or.status();
  return lu_or.value().Solve(b);
}

}  // namespace dkf
