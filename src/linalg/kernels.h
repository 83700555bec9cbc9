#ifndef DKF_LINALG_KERNELS_H_
#define DKF_LINALG_KERNELS_H_

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>

#include "linalg/matrix.h"

namespace dkf {

/// The filter arithmetic: raw-pointer kernels over row-major
/// (const double*, rows, cols) operands, and the predict composite built
/// from them. They are the only multiply, multiply-transposed,
/// add-scaled and symmetrize code the filters run: KalmanFilter calls
/// them on the segments of its state block, the batched fleet engine's
/// lane loop on its flat per-lane columns, and the Matrix overloads at
/// the end of this file (used by the EKF, UKF, steady-state and fusion
/// filters) are one-line wrappers. Header-inline so the lane loop
/// inlines them.
///
/// Determinism contract: every kernel performs the exact same
/// floating-point operations in the exact same order as the Matrix
/// operator expression it replaces (including the zero-skip in matrix
/// multiply), so `MultiplyInto(a, b, &out)` produces bit-identical
/// entries to `out = a * b`, etc. The golden tests in
/// tests/linalg/kernels_test.cc pin this with exact `==` comparisons for
/// all dims 1-6 (and a heap-sized one).
///
/// Aliasing: the multiply kernels require `out` to be distinct from both
/// inputs. The elementwise kernels (AddScaledInto, SymmetrizeInto) allow
/// `out` to alias either input.

/// out (rows x cols) = a (rows x inner) * b (inner x cols). Zero entries
/// of `a` are skipped, as Matrix::operator* does.
inline void MultiplyInto(const double* a, size_t rows, size_t inner,
                         const double* b, size_t cols, double* out) {
  std::fill(out, out + rows * cols, 0.0);
  for (size_t r = 0; r < rows; ++r) {
    const double* a_row = a + r * inner;
    double* out_row = out + r * cols;
    for (size_t k = 0; k < inner; ++k) {
      const double av = a_row[k];
      if (av == 0.0) continue;
      const double* b_row = b + k * cols;
      for (size_t c = 0; c < cols; ++c) out_row[c] += av * b_row[c];
    }
  }
}

/// out (rows) = a (rows x cols) * v: plain ascending sums, no zero-skip.
inline void MultiplyVectorInto(const double* a, size_t rows, size_t cols,
                               const double* v, double* out) {
  for (size_t r = 0; r < rows; ++r) {
    const double* a_row = a + r * cols;
    double sum = 0.0;
    for (size_t c = 0; c < cols; ++c) sum += a_row[c] * v[c];
    out[r] = sum;
  }
}

/// out (rows x b_rows) = a (rows x inner) * b^T, b being (b_rows x
/// inner), without materializing the transpose. Same accumulation order
/// and zero-skip as `a * b.Transpose()`.
inline void MultiplyTransposedInto(const double* a, size_t rows,
                                   size_t inner, const double* b,
                                   size_t b_rows, double* out) {
  for (size_t r = 0; r < rows; ++r) {
    const double* a_row = a + r * inner;
    double* out_row = out + r * b_rows;
    for (size_t c = 0; c < b_rows; ++c) {
      const double* b_row = b + c * inner;
      double sum = 0.0;
      for (size_t k = 0; k < inner; ++k) {
        const double av = a_row[k];
        if (av == 0.0) continue;
        sum += av * b_row[k];
      }
      out_row[c] = sum;
    }
  }
}

/// out = a + scale * b over `count` entries. With scale +1/-1 this is
/// bit-identical to `a + b` / `a - b` (negation is exact in IEEE-754).
inline void AddScaledInto(const double* a, const double* b, double scale,
                          size_t count, double* out) {
  for (size_t i = 0; i < count; ++i) out[i] = a[i] + scale * b[i];
}

/// a = (a + a^T) / 2 for an n x n matrix: Matrix::Symmetrize.
inline void SymmetrizeInPlace(double* a, size_t n) {
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = r + 1; c < n; ++c) {
      const double avg = 0.5 * (a[r * n + c] + a[c * n + r]);
      a[r * n + c] = avg;
      a[c * n + r] = avg;
    }
  }
}

/// True when all `count` entries are finite: the divergence check after
/// every predict and correct.
inline bool AllFinite(const double* values, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    if (!std::isfinite(values[i])) return false;
  }
  return true;
}

/// Largest |a_i - b_i| over `count` entries: Matrix::MaxAbsDiff.
inline double MaxAbsDiff(const double* a, const double* b, size_t count) {
  double best = 0.0;
  for (size_t i = 0; i < count; ++i) {
    best = std::max(best, std::fabs(a[i] - b[i]));
  }
  return best;
}

/// The covariance predict: out = Symmetrize(phi P phi^T + Q) for n x n
/// operands, in Matrix-expression order (phi P, then the transposed
/// multiply, then + 1.0 * Q). `tmp` is n x n scratch; `out` may alias
/// `p` (P is only read by the first multiply) but not `tmp`.
inline void PredictCovarianceInto(const double* phi, const double* p,
                                  const double* q, size_t n, double* tmp,
                                  double* out) {
  MultiplyInto(phi, n, n, p, n, tmp);
  MultiplyTransposedInto(tmp, n, n, phi, n, out);
  AddScaledInto(out, q, 1.0, n * n, out);
  SymmetrizeInPlace(out, n);
}

/// max_r |(H x)_r - z_r| for H (m x n): the kMaxAbs deviation of the
/// predicted measurement H x (MultiplyVectorInto's sums) from z.
inline double MaxAbsDeviation(const double* h, const double* x,
                              const double* z, size_t n, size_t m) {
  double deviation = 0.0;
  for (size_t r = 0; r < m; ++r) {
    double hx = 0.0;
    MultiplyVectorInto(h + r * n, 1, n, x, &hx);
    deviation = std::max(deviation, std::fabs(hx - z[r]));
  }
  return deviation;
}

// Matrix/Vector overloads: reshape the output (AssignZero reuses
// capacity, so a recycled scratch object never touches the allocator
// once warm, and n <= 6 never does thanks to the inline storage) and run
// the raw kernel.

/// out = a * b. Bit-identical to `a * b`.
inline void MultiplyInto(const Matrix& a, const Matrix& b, Matrix* out) {
  assert(out != &a && out != &b && a.cols() == b.rows());
  out->AssignZero(a.rows(), b.cols());
  MultiplyInto(a.data(), a.rows(), a.cols(), b.data(), b.cols(), out->data());
}

/// out = a * v. Bit-identical to `a * v`.
inline void MultiplyInto(const Matrix& a, const Vector& v, Vector* out) {
  assert(out != &v && a.cols() == v.size());
  out->AssignZero(a.rows());
  MultiplyVectorInto(a.data(), a.rows(), a.cols(), v.data(), out->data());
}

/// out = a * b^T. Bit-identical to `a * b.Transpose()`.
inline void MultiplyTransposedInto(const Matrix& a, const Matrix& b,
                                   Matrix* out) {
  assert(out != &a && out != &b && a.cols() == b.cols());
  out->AssignZero(a.rows(), b.rows());
  MultiplyTransposedInto(a.data(), a.rows(), a.cols(), b.data(), b.rows(),
                         out->data());
}

/// out = a + scale * b, elementwise; `out` may alias `a` or `b`.
inline void AddScaledInto(const Matrix& a, const Matrix& b, double scale,
                          Matrix* out) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  if (out != &a && out != &b) out->AssignZero(a.rows(), a.cols());
  AddScaledInto(a.data(), b.data(), scale, a.rows() * a.cols(), out->data());
}

/// Vector overload of AddScaledInto; `out` may alias `a` or `b`.
inline void AddScaledInto(const Vector& a, const Vector& b, double scale,
                          Vector* out) {
  assert(a.size() == b.size());
  if (out != &a && out != &b) out->AssignZero(a.size());
  AddScaledInto(a.data(), b.data(), scale, a.size(), out->data());
}

/// out = (a + a^T) / 2. Bit-identical to `{ out = a; out.Symmetrize(); }`.
/// `out` may alias `a`.
inline void SymmetrizeInto(const Matrix& a, Matrix* out) {
  assert(a.rows() == a.cols());
  if (out != &a) *out = a;
  SymmetrizeInPlace(out->data(), out->rows());
}

}  // namespace dkf

#endif  // DKF_LINALG_KERNELS_H_
