#include "graph/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.h"

namespace fcm::graph {

Matrix::Matrix(std::size_t n) : n_(n), data_(n * n, 0.0) {}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n);
  for (std::size_t i = 0; i < n; ++i) m.at(i, i) = 1.0;
  return m;
}

double& Matrix::at(std::size_t row, std::size_t col) {
  FCM_REQUIRE(row < n_ && col < n_, "matrix index out of range");
  return data_[row * n_ + col];
}

double Matrix::at(std::size_t row, std::size_t col) const {
  FCM_REQUIRE(row < n_ && col < n_, "matrix index out of range");
  return data_[row * n_ + col];
}

Matrix Matrix::operator*(const Matrix& other) const {
  FCM_REQUIRE(n_ == other.n_, "matrix size mismatch");
  Matrix result(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t k = 0; k < n_; ++k) {
      const double a = data_[i * n_ + k];
      if (a == 0.0) continue;
      for (std::size_t j = 0; j < n_; ++j) {
        result.data_[i * n_ + j] += a * other.data_[k * n_ + j];
      }
    }
  }
  return result;
}

Matrix Matrix::operator+(const Matrix& other) const {
  Matrix result = *this;
  result += other;
  return result;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  FCM_REQUIRE(n_ == other.n_, "matrix size mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

double Matrix::max_abs() const noexcept {
  double m = 0.0;
  for (const double v : data_) m = std::max(m, std::fabs(v));
  return m;
}

namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv_mix(std::uint64_t hash, std::uint64_t value) noexcept {
  for (int byte = 0; byte < 8; ++byte) {
    hash = (hash ^ (value & 0xFFu)) * kFnvPrime;
    value >>= 8u;
  }
  return hash;
}

}  // namespace

std::uint64_t Matrix::content_hash() const noexcept {
  std::uint64_t hash = fnv_mix(kFnvOffset ^ 0x9E3779B97F4A7C15ULL,
                               static_cast<std::uint64_t>(n_));
  for (const double v : data_) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    hash = fnv_mix(hash, bits);
  }
  return hash;
}

}  // namespace fcm::graph
