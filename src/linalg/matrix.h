#ifndef DKF_LINALG_MATRIX_H_
#define DKF_LINALG_MATRIX_H_

#include <cstddef>
#include <cstring>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

namespace dkf {

namespace internal {

/// Small-buffer storage for the linalg types: entries live in a fixed
/// inline array until the element count exceeds `InlineCapacity`, after
/// which they move to a heap block. Kalman-filter state dimensions in this
/// library are tiny (n <= 6), so in practice vectors and matrices never
/// touch the allocator — which is what makes the per-tick filter hot loop
/// allocation-free (see docs/perf.md). Capacity never shrinks: once a
/// buffer has grown (inline or heap), re-assigning a smaller size reuses
/// the existing storage, so scratch objects can be recycled across ticks.
template <size_t InlineCapacity>
class InlineBuffer {
 public:
  InlineBuffer() = default;
  InlineBuffer(size_t n, double value) { Assign(n, value); }
  InlineBuffer(const InlineBuffer& other) { *this = other; }
  InlineBuffer(InlineBuffer&& other) noexcept { *this = std::move(other); }
  ~InlineBuffer() { delete[] heap_; }

  InlineBuffer& operator=(const InlineBuffer& other) {
    if (this == &other) return *this;
    GrowDiscard(other.size_);
    size_ = other.size_;
    if (size_ > 0) std::memcpy(data(), other.data(), size_ * sizeof(double));
    return *this;
  }

  InlineBuffer& operator=(InlineBuffer&& other) noexcept {
    if (this == &other) return *this;
    if (other.heap_ != nullptr) {
      delete[] heap_;
      heap_ = other.heap_;
      capacity_ = other.capacity_;
      size_ = other.size_;
      other.heap_ = nullptr;
      other.capacity_ = InlineCapacity;
      other.size_ = 0;
    } else {
      // Inline contents cannot be stolen; copy them (size <= InlineCapacity,
      // so this never allocates).
      GrowDiscard(other.size_);
      size_ = other.size_;
      if (size_ > 0) {
        std::memcpy(data(), other.inline_, size_ * sizeof(double));
      }
    }
    return *this;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  double* data() { return heap_ != nullptr ? heap_ : inline_; }
  const double* data() const { return heap_ != nullptr ? heap_ : inline_; }

  double operator[](size_t i) const { return data()[i]; }
  double& operator[](size_t i) { return data()[i]; }

  double* begin() { return data(); }
  double* end() { return data() + size_; }
  const double* begin() const { return data(); }
  const double* end() const { return data() + size_; }

  /// Resizes to `n` entries, all set to `value`, reusing capacity.
  void Assign(size_t n, double value) {
    GrowDiscard(n);
    size_ = n;
    for (size_t i = 0; i < n; ++i) data()[i] = value;
  }

  /// Resizes to `n` entries copied from `src` (must not alias this
  /// buffer's storage), reusing capacity.
  void AssignCopy(size_t n, const double* src) {
    GrowDiscard(n);
    size_ = n;
    if (n > 0) std::memcpy(data(), src, n * sizeof(double));
  }

 private:
  /// Ensures capacity for `n` entries; contents are unspecified afterwards.
  void GrowDiscard(size_t n) {
    if (n <= capacity_) return;
    delete[] heap_;
    heap_ = new double[n];
    capacity_ = n;
  }

  double inline_[InlineCapacity];
  double* heap_ = nullptr;
  size_t capacity_ = InlineCapacity;
  size_t size_ = 0;
};

}  // namespace internal

/// Inline capacities sized for the library's regime (state dim n <= 6,
/// measurement dim m <= n): a vector holds up to a 6-state, a matrix up to
/// a 6x6 block, before falling back to the heap.
inline constexpr size_t kVectorInlineCapacity = 6;
inline constexpr size_t kMatrixInlineCapacity = 36;

class Matrix;

/// A dense column vector of doubles with inline small-size storage
/// (n <= 6 never allocates; larger sizes fall back to the heap).
class Vector {
 public:
  Vector() = default;
  /// A vector of `n` zeros.
  explicit Vector(size_t n) : data_(n, 0.0) {}
  /// From explicit entries, e.g. Vector({1.0, 2.0}).
  Vector(std::initializer_list<double> entries) {
    data_.AssignCopy(entries.size(), entries.begin());
  }
  /// From a std::vector (copies the entries).
  explicit Vector(const std::vector<double>& entries) {
    data_.AssignCopy(entries.size(), entries.data());
  }

  size_t size() const { return data_.size(); }

  double operator[](size_t i) const { return data_[i]; }
  double& operator[](size_t i) { return data_[i]; }

  /// Contiguous entry storage.
  const double* data() const { return data_.data(); }
  double* data() { return data_.data(); }

  /// The entries copied into a std::vector (allocates; not for hot paths).
  std::vector<double> ToStdVector() const {
    return std::vector<double>(data_.begin(), data_.end());
  }

  /// Resizes to `n` entries, all zero, reusing existing capacity (the
  /// scratch-recycling primitive used by the in-place kernels).
  void AssignZero(size_t n) { data_.Assign(n, 0.0); }

  Vector operator+(const Vector& other) const;
  Vector operator-(const Vector& other) const;
  Vector operator*(double scalar) const;
  Vector& operator+=(const Vector& other);
  Vector& operator-=(const Vector& other);

  /// Dot product; dimensions must match.
  double Dot(const Vector& other) const;

  /// Euclidean norm.
  double Norm() const;

  /// Largest absolute entry (infinity norm); 0 for an empty vector.
  double MaxAbs() const;

  /// Outer product: this * other^T, an (size x other.size) matrix.
  Matrix Outer(const Vector& other) const;

  /// True when every entry is finite.
  bool IsFinite() const;

  /// "[a, b, c]" with %.6g entries.
  std::string ToString() const;

 private:
  internal::InlineBuffer<kVectorInlineCapacity> data_;
};

Vector operator*(double scalar, const Vector& v);

/// A dense row-major matrix of doubles with inline small-size storage
/// (up to 6x6 never allocates; larger shapes fall back to the heap).
class Matrix {
 public:
  Matrix() = default;
  /// An (rows x cols) matrix of zeros.
  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}
  /// From nested initializer lists: Matrix({{1, 2}, {3, 4}}). All rows must
  /// have equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  /// The (n x n) identity.
  static Matrix Identity(size_t n);
  /// A square matrix with `diagonal` on the diagonal.
  static Matrix Diagonal(const Vector& diagonal);
  /// A square matrix with `value` repeated on the diagonal.
  static Matrix ScaledIdentity(size_t n, double value);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double operator()(size_t r, size_t c) const { return data_[r * cols_ + c]; }
  double& operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }

  /// The rows() x cols() entries, row-major and contiguous.
  const double* data() const { return data_.data(); }
  double* data() { return data_.data(); }

  /// Row `r` as a contiguous span of cols() doubles (row-major storage).
  const double* RowData(size_t r) const { return data_.data() + r * cols_; }
  double* MutableRowData(size_t r) { return data_.data() + r * cols_; }

  /// Reshapes to (rows x cols) with every entry zero, reusing existing
  /// capacity (the scratch-recycling primitive used by the in-place
  /// kernels).
  void AssignZero(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.Assign(rows * cols, 0.0);
  }

  Matrix operator+(const Matrix& other) const;
  Matrix operator-(const Matrix& other) const;
  Matrix operator*(const Matrix& other) const;
  Matrix operator*(double scalar) const;
  Vector operator*(const Vector& v) const;
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);

  Matrix Transpose() const;

  /// Row `r` as a vector.
  Vector Row(size_t r) const;
  /// Column `c` as a vector.
  Vector Col(size_t c) const;

  /// Sum of diagonal entries; requires a square matrix.
  double Trace() const;

  /// Largest absolute entry.
  double MaxAbs() const;

  /// Largest |a_ij - b_ij|; matrices must have equal shape.
  double MaxAbsDiff(const Matrix& other) const;

  /// Replaces the matrix with (M + M^T) / 2 — used after covariance updates
  /// to wash out floating-point asymmetry.
  void Symmetrize();

  /// True when every entry is finite.
  bool IsFinite() const;

  /// Multi-line "[[a, b], [c, d]]"-style rendering with %.6g entries.
  std::string ToString() const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  internal::InlineBuffer<kMatrixInlineCapacity> data_;
};

Matrix operator*(double scalar, const Matrix& m);

/// Same shape and the same bytes in every entry. Unlike `==` on doubles
/// this tells -0.0 from 0.0 and lets a NaN equal its own bit pattern —
/// the predicate for "the same filter state, bit for bit".
bool BitEqual(const Vector& a, const Vector& b);
bool BitEqual(const Matrix& a, const Matrix& b);
/// `a` against rows() x cols() row-major entries read in place.
bool BitEqual(const Matrix& a, const double* b);

}  // namespace dkf

#endif  // DKF_LINALG_MATRIX_H_
