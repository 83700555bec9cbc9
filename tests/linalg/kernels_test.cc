#include "linalg/kernels.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "filter/kalman_filter.h"
#include "linalg/decompose.h"
#include "linalg/matrix.h"

namespace dkf {
namespace {

// The kernels advertise bit-identical results to the operator expressions
// they replace (see linalg/kernels.h). Every comparison in this file is
// exact `==` — a 1-ulp difference is a contract violation, because the
// dual-filter mirror protocol depends on both ends computing identical
// bits.

Matrix RandomMatrix(Rng& rng, size_t rows, size_t cols) {
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      // Sprinkle exact zeros so the zero-skip branch in the multiply
      // kernels is exercised alongside the dense path.
      m(r, c) = rng.Bernoulli(0.2) ? 0.0 : rng.Gaussian(0.0, 10.0);
    }
  }
  return m;
}

Vector RandomVector(Rng& rng, size_t n) {
  Vector v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = rng.Bernoulli(0.2) ? 0.0 : rng.Gaussian(0.0, 10.0);
  }
  return v;
}

void ExpectBitIdentical(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < a.cols(); ++c) {
      EXPECT_EQ(a(r, c), b(r, c)) << "at (" << r << "," << c << ")";
    }
  }
}

void ExpectBitIdentical(const Vector& a, const Vector& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "at " << i;
  }
}

/// A raw kernel's output, `rows` x `cols` flat entries.
Matrix FromFlat(const std::vector<double>& flat, size_t rows, size_t cols) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < flat.size(); ++i) m.data()[i] = flat[i];
  return m;
}

// Dimensions under test: every inline size 1..6 plus a heap-fallback size
// (9 > kVectorInlineCapacity, 81 > kMatrixInlineCapacity).
const size_t kDims[] = {1, 2, 3, 4, 5, 6, 9};

TEST(KernelGoldenTest, MultiplyMatrixMatrix) {
  Rng rng(1);
  for (size_t n : kDims) {
    for (size_t m : kDims) {
      for (int rep = 0; rep < 5; ++rep) {
        const Matrix a = RandomMatrix(rng, n, m);
        const Matrix b = RandomMatrix(rng, m, n);
        Matrix out;
        MultiplyInto(a, b, &out);
        ExpectBitIdentical(out, a * b);
        std::vector<double> raw(n * n, -1.0);
        MultiplyInto(a.data(), n, m, b.data(), n, raw.data());
        ExpectBitIdentical(FromFlat(raw, n, n), a * b);
      }
    }
  }
}

TEST(KernelGoldenTest, MultiplyMatrixVector) {
  Rng rng(2);
  for (size_t n : kDims) {
    for (size_t m : kDims) {
      for (int rep = 0; rep < 5; ++rep) {
        const Matrix a = RandomMatrix(rng, n, m);
        const Vector v = RandomVector(rng, m);
        Vector out;
        MultiplyInto(a, v, &out);
        ExpectBitIdentical(out, a * v);
        std::vector<double> raw(n, -1.0);
        MultiplyVectorInto(a.data(), n, m, v.data(), raw.data());
        ExpectBitIdentical(Vector(raw), a * v);
        // The lane deviation: max |(a v)_r - z_r|, as Deviation's kMaxAbs
        // computes it on the predicted measurement.
        const Vector z = RandomVector(rng, n);
        double deviation = 0.0;
        for (size_t r = 0; r < n; ++r) {
          deviation = std::max(deviation, std::fabs((a * v)[r] - z[r]));
        }
        EXPECT_EQ(MaxAbsDeviation(a.data(), v.data(), z.data(), m, n),
                  deviation);
      }
    }
  }
}

TEST(KernelGoldenTest, MultiplyTransposed) {
  Rng rng(3);
  for (size_t n : kDims) {
    for (size_t m : kDims) {
      for (int rep = 0; rep < 5; ++rep) {
        const Matrix a = RandomMatrix(rng, n, m);
        const Matrix b = RandomMatrix(rng, n, m);  // b^T is m x n
        Matrix out;
        MultiplyTransposedInto(a, b, &out);
        ExpectBitIdentical(out, a * b.Transpose());
        std::vector<double> raw(n * n, -1.0);
        MultiplyTransposedInto(a.data(), n, m, b.data(), n, raw.data());
        ExpectBitIdentical(FromFlat(raw, n, n), a * b.Transpose());
      }
    }
  }
}

TEST(KernelGoldenTest, AddScaledMatchesOperators) {
  Rng rng(4);
  for (size_t n : kDims) {
    const Matrix a = RandomMatrix(rng, n, n);
    const Matrix b = RandomMatrix(rng, n, n);
    Matrix out;
    AddScaledInto(a, b, 1.0, &out);
    ExpectBitIdentical(out, a + b);
    AddScaledInto(a, b, -1.0, &out);
    ExpectBitIdentical(out, a - b);
    AddScaledInto(a, b, 0.5, &out);
    ExpectBitIdentical(out, a + b * 0.5);
    std::vector<double> raw(n * n, -1.0);
    AddScaledInto(a.data(), b.data(), -1.0, n * n, raw.data());
    ExpectBitIdentical(FromFlat(raw, n, n), a - b);

    const Vector va = RandomVector(rng, n);
    const Vector vb = RandomVector(rng, n);
    Vector vout;
    AddScaledInto(va, vb, -1.0, &vout);
    ExpectBitIdentical(vout, va - vb);
  }
}

TEST(KernelGoldenTest, AddScaledAllowsAliasing) {
  Rng rng(5);
  const Matrix a = RandomMatrix(rng, 4, 4);
  const Matrix b = RandomMatrix(rng, 4, 4);
  Matrix out = a;
  AddScaledInto(out, b, -1.0, &out);  // out aliases the first operand
  ExpectBitIdentical(out, a - b);
  out = b;
  AddScaledInto(a, out, 2.0, &out);  // out aliases the second operand
  ExpectBitIdentical(out, a + b * 2.0);
}

TEST(KernelGoldenTest, SymmetrizeMatchesMemberFunction) {
  Rng rng(6);
  for (size_t n : kDims) {
    const Matrix a = RandomMatrix(rng, n, n);
    Matrix expected = a;
    expected.Symmetrize();
    Matrix out;
    SymmetrizeInto(a, &out);
    ExpectBitIdentical(out, expected);
    // Aliased form.
    Matrix aliased = a;
    SymmetrizeInto(aliased, &aliased);
    ExpectBitIdentical(aliased, expected);
    // Raw form, and the predict composite that ends in it: the covariance
    // predict Symmetrize(phi P phi^T + Q) must be the operator
    // expression's bits and KalmanFilter::Predict's, with phi x beside it.
    std::vector<double> raw(a.data(), a.data() + n * n);
    SymmetrizeInPlace(raw.data(), n);
    ExpectBitIdentical(FromFlat(raw, n, n), expected);
    if (n > 6) continue;
    const Matrix phi = RandomMatrix(rng, n, n);
    const Matrix q = RandomMatrix(rng, n, n);
    KalmanFilterOptions options;
    options.transition = phi;
    options.measurement = RandomMatrix(rng, 1, n);
    options.process_noise = q;
    options.measurement_noise = Matrix{{1.0}};
    options.initial_state = RandomVector(rng, n);
    options.initial_covariance = a;
    auto filter_or = KalmanFilter::Create(options);
    ASSERT_TRUE(filter_or.ok());
    KalmanFilter filter = std::move(filter_or).value();
    ASSERT_TRUE(filter.Predict().ok());
    Matrix predicted = phi * a * phi.Transpose() + q;
    predicted.Symmetrize();
    std::vector<double> tmp(n * n);
    std::vector<double> composite(n * n, -1.0);
    PredictCovarianceInto(phi.data(), a.data(), q.data(), n, tmp.data(),
                          composite.data());
    ExpectBitIdentical(FromFlat(composite, n, n), predicted);
    ExpectBitIdentical(filter.covariance(), predicted);
    ExpectBitIdentical(filter.state(), phi * options.initial_state);
  }
}

TEST(KernelGoldenTest, LuFactorAndSolveMatchDecomposition) {
  Rng rng(7);
  for (size_t n : kDims) {
    for (int rep = 0; rep < 5; ++rep) {
      // Diagonally-dominated matrices are safely invertible.
      Matrix a = RandomMatrix(rng, n, n);
      for (size_t i = 0; i < n; ++i) a(i, i) += 50.0;
      const Vector b = RandomVector(rng, n);

      auto lu_or = LuDecomposition::Compute(a);
      ASSERT_TRUE(lu_or.ok());
      auto x_ref_or = lu_or.value().Solve(b);
      ASSERT_TRUE(x_ref_or.ok());

      Matrix factored = a;
      std::vector<size_t> pivots;
      ASSERT_TRUE(LuFactorInPlace(&factored, &pivots).ok());
      Vector x;
      ASSERT_TRUE(LuSolveInto(factored, pivots, b, &x).ok());

      ExpectBitIdentical(x, x_ref_or.value());
    }
  }
}

TEST(KernelGoldenTest, ScratchReuseAcrossShapes) {
  // Recycling one scratch object through different shapes (the filter
  // workspace pattern) must produce the same bits as fresh outputs.
  Rng rng(8);
  Matrix scratch;
  Vector vscratch;
  for (size_t n : kDims) {
    const Matrix a = RandomMatrix(rng, n, n);
    const Matrix b = RandomMatrix(rng, n, n);
    MultiplyInto(a, b, &scratch);
    ExpectBitIdentical(scratch, a * b);
    const Vector v = RandomVector(rng, n);
    MultiplyInto(a, v, &vscratch);
    ExpectBitIdentical(vscratch, a * v);
  }
  // Shrink back down after the heap-fallback size: capacity is retained
  // but the visible shape and contents must be exact.
  const Matrix small = RandomMatrix(rng, 2, 2);
  MultiplyInto(small, small, &scratch);
  ExpectBitIdentical(scratch, small * small);
}

TEST(InlineStorageTest, CopyAndMovePreserveValues) {
  Rng rng(9);
  for (size_t n : {size_t{3}, size_t{6}, size_t{9}}) {  // inline and heap
    const Vector v = RandomVector(rng, n);
    Vector copy = v;
    ExpectBitIdentical(copy, v);
    Vector moved = std::move(copy);
    ExpectBitIdentical(moved, v);
    copy = moved;  // copy-assign back over moved-from object
    ExpectBitIdentical(copy, v);

    const Matrix m = RandomMatrix(rng, n, n);
    Matrix mcopy = m;
    ExpectBitIdentical(mcopy, m);
    Matrix mmoved = std::move(mcopy);
    ExpectBitIdentical(mmoved, m);
    mcopy = mmoved;
    ExpectBitIdentical(mcopy, m);
  }
}

TEST(InlineStorageTest, GrowAcrossInlineBoundary) {
  // A vector that grows from inline into heap storage (and a matrix
  // likewise) must carry no stale values: AssignZero gives all-zeros at
  // the new shape.
  Vector v(3);
  for (size_t i = 0; i < 3; ++i) v[i] = 1.0 + i;
  v.AssignZero(10);
  ASSERT_EQ(v.size(), 10u);
  for (size_t i = 0; i < 10; ++i) EXPECT_EQ(v[i], 0.0);

  Matrix m = Matrix::Identity(4);
  m.AssignZero(10, 10);
  ASSERT_EQ(m.rows(), 10u);
  for (size_t r = 0; r < 10; ++r) {
    for (size_t c = 0; c < 10; ++c) EXPECT_EQ(m(r, c), 0.0);
  }
}

TEST(InlineStorageTest, ToStdVectorRoundTrip) {
  Rng rng(10);
  const Vector v = RandomVector(rng, 5);
  const std::vector<double> out = v.ToStdVector();
  ASSERT_EQ(out.size(), 5u);
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(out[i], v[i]);
  const Vector back(out);
  ExpectBitIdentical(back, v);
}

}  // namespace
}  // namespace dkf
