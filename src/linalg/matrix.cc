#include "linalg/matrix.h"

#include <cassert>
#include <cmath>
#include <cstring>

#include "common/string_util.h"
#include "linalg/kernels.h"

namespace dkf {

Vector Vector::operator+(const Vector& other) const {
  assert(size() == other.size());
  Vector out(*this);
  out += other;
  return out;
}

Vector Vector::operator-(const Vector& other) const {
  assert(size() == other.size());
  Vector out(*this);
  out -= other;
  return out;
}

Vector Vector::operator*(double scalar) const {
  Vector out(*this);
  for (auto& x : out.data_) x *= scalar;
  return out;
}

Vector& Vector::operator+=(const Vector& other) {
  assert(size() == other.size());
  for (size_t i = 0; i < size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Vector& Vector::operator-=(const Vector& other) {
  assert(size() == other.size());
  for (size_t i = 0; i < size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

double Vector::Dot(const Vector& other) const {
  assert(size() == other.size());
  double sum = 0.0;
  for (size_t i = 0; i < size(); ++i) sum += data_[i] * other.data_[i];
  return sum;
}

double Vector::Norm() const { return std::sqrt(Dot(*this)); }

double Vector::MaxAbs() const {
  double best = 0.0;
  for (double x : data_) best = std::max(best, std::fabs(x));
  return best;
}

Matrix Vector::Outer(const Vector& other) const {
  Matrix out(size(), other.size());
  for (size_t r = 0; r < size(); ++r) {
    for (size_t c = 0; c < other.size(); ++c) {
      out(r, c) = data_[r] * other.data_[c];
    }
  }
  return out;
}

bool Vector::IsFinite() const { return AllFinite(data(), size()); }

std::string Vector::ToString() const {
  std::string out = "[";
  for (size_t i = 0; i < size(); ++i) {
    if (i > 0) out += ", ";
    out += StrFormat("%.6g", data_[i]);
  }
  out += "]";
  return out;
}

Vector operator*(double scalar, const Vector& v) { return v * scalar; }

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.Assign(rows_ * cols_, 0.0);
  size_t i = 0;
  for (const auto& row : rows) {
    assert(row.size() == cols_);
    for (double v : row) data_[i++] = v;
  }
}

Matrix Matrix::Identity(size_t n) { return ScaledIdentity(n, 1.0); }

Matrix Matrix::Diagonal(const Vector& diagonal) {
  Matrix out(diagonal.size(), diagonal.size());
  for (size_t i = 0; i < diagonal.size(); ++i) out(i, i) = diagonal[i];
  return out;
}

Matrix Matrix::ScaledIdentity(size_t n, double value) {
  Matrix out(n, n);
  for (size_t i = 0; i < n; ++i) out(i, i) = value;
  return out;
}

Matrix Matrix::operator+(const Matrix& other) const {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  Matrix out(*this);
  out += other;
  return out;
}

Matrix Matrix::operator-(const Matrix& other) const {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  Matrix out(*this);
  out -= other;
  return out;
}

Matrix Matrix::operator*(const Matrix& other) const {
  assert(cols_ == other.rows_);
  Matrix out(rows_, other.cols_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t k = 0; k < cols_; ++k) {
      const double a = (*this)(r, k);
      if (a == 0.0) continue;
      for (size_t c = 0; c < other.cols_; ++c) {
        out(r, c) += a * other(k, c);
      }
    }
  }
  return out;
}

Matrix Matrix::operator*(double scalar) const {
  Matrix out(*this);
  for (auto& x : out.data_) x *= scalar;
  return out;
}

Vector Matrix::operator*(const Vector& v) const {
  assert(cols_ == v.size());
  Vector out(rows_);
  for (size_t r = 0; r < rows_; ++r) {
    double sum = 0.0;
    for (size_t c = 0; c < cols_; ++c) sum += (*this)(r, c) * v[c];
    out[r] = sum;
  }
  return out;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix Matrix::Transpose() const {
  Matrix out(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  }
  return out;
}

Vector Matrix::Row(size_t r) const {
  Vector out(cols_);
  for (size_t c = 0; c < cols_; ++c) out[c] = (*this)(r, c);
  return out;
}

Vector Matrix::Col(size_t c) const {
  Vector out(rows_);
  for (size_t r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
  return out;
}

double Matrix::Trace() const {
  assert(rows_ == cols_);
  double sum = 0.0;
  for (size_t i = 0; i < rows_; ++i) sum += (*this)(i, i);
  return sum;
}

double Matrix::MaxAbs() const {
  double best = 0.0;
  for (double x : data_) best = std::max(best, std::fabs(x));
  return best;
}

double Matrix::MaxAbsDiff(const Matrix& other) const {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  return dkf::MaxAbsDiff(data(), other.data(), data_.size());
}

void Matrix::Symmetrize() {
  assert(rows_ == cols_);
  SymmetrizeInPlace(data(), rows_);
}

bool Matrix::IsFinite() const { return AllFinite(data(), data_.size()); }

std::string Matrix::ToString() const {
  std::string out = "[";
  for (size_t r = 0; r < rows_; ++r) {
    if (r > 0) out += ", ";
    out += "[";
    for (size_t c = 0; c < cols_; ++c) {
      if (c > 0) out += ", ";
      out += StrFormat("%.6g", (*this)(r, c));
    }
    out += "]";
  }
  out += "]";
  return out;
}

Matrix operator*(double scalar, const Matrix& m) { return m * scalar; }

bool BitEqual(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) return false;
  return a.size() == 0 ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool BitEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() && BitEqual(a, b.data());
}

bool BitEqual(const Matrix& a, const double* b) {
  const size_t n = a.rows() * a.cols();
  return n == 0 || std::memcmp(a.data(), b, n * sizeof(double)) == 0;
}

}  // namespace dkf
