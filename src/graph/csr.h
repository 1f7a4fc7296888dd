// Compressed-sparse-row view of a square matrix.
//
// The Eq. 3 power series repeatedly right-multiplies an accumulating term by
// the *same* influence matrix P. Influence graphs are sparse (a process
// directly influences a handful of neighbors, not all n), so storing P once
// in CSR form turns each multiply from O(n³) into O(n · nnz(P)) — the term
// matrix densifies across orders, but P never does. Row entries are kept in
// ascending column order.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/matrix.h"

namespace fcm::graph {

/// Immutable CSR snapshot of a square matrix. Entries equal to 0.0 are
/// dropped; within a row, columns ascend.
class CsrMatrix {
 public:
  /// Compresses `dense`; O(n²) scan, done once per series evaluation.
  explicit CsrMatrix(const Matrix& dense);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] std::size_t nonzeros() const noexcept { return col_.size(); }

  /// Row r occupies [row_begin(r), row_end(r)) in cols()/values().
  [[nodiscard]] std::size_t row_begin(std::size_t r) const noexcept {
    return row_ptr_[r];
  }
  [[nodiscard]] std::size_t row_end(std::size_t r) const noexcept {
    return row_ptr_[r + 1];
  }
  [[nodiscard]] const std::uint32_t* cols() const noexcept {
    return col_.data();
  }
  [[nodiscard]] const double* values() const noexcept { return val_.data(); }

  /// Expands back to dense form (test/debug helper).
  [[nodiscard]] Matrix to_dense() const;

 private:
  std::size_t n_;
  std::vector<std::size_t> row_ptr_;  // n_ + 1 offsets
  std::vector<std::uint32_t> col_;
  std::vector<double> val_;
};

}  // namespace fcm::graph
