// Dense square matrices for the separation power series (Eq. 3).
//
// The paper computes separation as
//   FCMi ∘ FCMj = 1 − (P_ij + Σ_k P_ik P_kj + Σ_l Σ_k P_ik P_kl P_lj + …)
// i.e. 1 minus the (i,j) entry of P + P² + P³ + … . `Matrix` provides the
// multiply/accumulate needed to evaluate that series to a chosen order,
// with a norm helper to decide when "higher-order terms are likely to be
// small enough to be neglected" (paper, §4.2.4).
//
// Access comes in two flavors: `at()` is bounds-checked and is the right
// call for client code assembling a matrix; `operator()` / `data()` are
// unchecked and exist for the series kernel (graph/series.h), whose inner
// loops cannot afford a branch per element.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fcm::graph {

/// Dense row-major square matrix of doubles.
class Matrix {
 public:
  /// n-by-n zero matrix.
  explicit Matrix(std::size_t n);

  /// n-by-n identity.
  static Matrix identity(std::size_t n);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }

  /// Bounds-checked access (throws on out-of-range indices).
  [[nodiscard]] double& at(std::size_t row, std::size_t col);
  [[nodiscard]] double at(std::size_t row, std::size_t col) const;

  /// Unchecked access for kernel inner loops. The caller guarantees
  /// row < size() and col < size().
  [[nodiscard]] double& operator()(std::size_t row, std::size_t col) noexcept {
    return data_[row * n_ + col];
  }
  [[nodiscard]] double operator()(std::size_t row,
                                  std::size_t col) const noexcept {
    return data_[row * n_ + col];
  }

  /// Raw row-major storage (n*n doubles).
  [[nodiscard]] double* data() noexcept { return data_.data(); }
  [[nodiscard]] const double* data() const noexcept { return data_.data(); }

  Matrix operator*(const Matrix& other) const;
  Matrix operator+(const Matrix& other) const;
  Matrix& operator+=(const Matrix& other);

  /// Largest absolute entry (infinity-like norm on entries); used to truncate
  /// the separation series once terms become negligible.
  [[nodiscard]] double max_abs() const noexcept;

  /// FNV-1a hash over the dimension and every entry's bit pattern, O(n²)
  /// per call.
  [[nodiscard]] std::uint64_t content_hash() const noexcept;

 private:
  std::size_t n_;
  std::vector<double> data_;
};

}  // namespace fcm::graph
