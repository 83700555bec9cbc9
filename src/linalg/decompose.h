#ifndef DKF_LINALG_DECOMPOSE_H_
#define DKF_LINALG_DECOMPOSE_H_

#include <vector>

#include "common/result.h"
#include "linalg/matrix.h"

namespace dkf {

/// LU factorization with partial pivoting of a square matrix. Errors when
/// the matrix is (numerically) singular.
class LuDecomposition {
 public:
  /// Factors `a`. Returns InvalidArgument for a non-square input and
  /// FailedPrecondition for a singular one.
  static Result<LuDecomposition> Compute(const Matrix& a);

  /// Solves A x = b.
  Result<Vector> Solve(const Vector& b) const;

  /// Solves A X = B column-by-column.
  Result<Matrix> Solve(const Matrix& b) const;

  /// A^{-1}.
  Result<Matrix> Inverse() const;

  /// det(A), including the pivot-permutation sign.
  double Determinant() const;

 private:
  LuDecomposition(Matrix lu, std::vector<size_t> pivots, int pivot_sign)
      : lu_(std::move(lu)), pivots_(std::move(pivots)),
        pivot_sign_(pivot_sign) {}

  Matrix lu_;                   // packed L (unit diagonal) and U
  std::vector<size_t> pivots_;  // row permutation
  int pivot_sign_;
};

/// Cholesky (LL^T) factorization of a symmetric positive-definite matrix.
/// Errors when the matrix is not SPD — the canonical "covariance went bad"
/// detector for the filter layer.
class CholeskyDecomposition {
 public:
  static Result<CholeskyDecomposition> Compute(const Matrix& a);

  /// Solves A x = b using the factor.
  Result<Vector> Solve(const Vector& b) const;

  /// A^{-1}.
  Result<Matrix> Inverse() const;

  /// The lower-triangular factor L with A = L L^T.
  const Matrix& L() const { return l_; }

  /// log(det(A)) = 2 * sum(log(L_ii)); cheaper and more stable than det.
  double LogDeterminant() const;

 private:
  explicit CholeskyDecomposition(Matrix l) : l_(std::move(l)) {}
  Matrix l_;
};

/// Workspace-based LU primitives for allocation-free hot paths. These are
/// the kernels LuDecomposition is built on; filters call them directly
/// against preallocated scratch so a factor-and-solve costs zero heap
/// allocations (see docs/perf.md).
///
/// Factors the n x n row-major `lu` in place into packed LU form
/// (unit-diagonal L below, U on and above the diagonal) with partial
/// pivoting, recording the row permutation in `pivots` (n entries) and
/// the permutation sign in `pivot_sign` when non-null. Bit-identical to
/// LuDecomposition::Compute. Errors (FailedPrecondition for a singular
/// matrix) leave `lu` in an unspecified state.
Status LuFactorInPlace(double* lu, size_t n, size_t* pivots,
                       int* pivot_sign = nullptr);

/// Solves A x = b (n entries each) from the packed factor produced by
/// LuFactorInPlace. `x` must not alias `b`. Bit-identical to
/// LuDecomposition::Solve.
void LuSolveInto(const double* lu, size_t n, const size_t* pivots,
                 const double* b, double* x);

/// Matrix form of LuFactorInPlace: `pivots` is resized to n (reusing
/// capacity); InvalidArgument for a non-square `a`.
Status LuFactorInPlace(Matrix* a, std::vector<size_t>* pivots,
                       int* pivot_sign = nullptr);

/// Matrix form of LuSolveInto: `x` is reshaped (capacity reused);
/// InvalidArgument when `b` does not match the factor's order.
Status LuSolveInto(const Matrix& lu, const std::vector<size_t>& pivots,
                   const Vector& b, Vector* x);

/// Solves the linear least-squares problem min ||A x - b||_2 via Householder
/// QR. Requires rows >= cols and full column rank.
Result<Vector> SolveLeastSquares(const Matrix& a, const Vector& b);

/// Convenience: A^{-1} via LU.
Result<Matrix> Inverse(const Matrix& a);

/// Convenience: solve A x = b via LU.
Result<Vector> SolveLinear(const Matrix& a, const Vector& b);

}  // namespace dkf

#endif  // DKF_LINALG_DECOMPOSE_H_
