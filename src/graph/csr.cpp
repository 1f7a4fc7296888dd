#include "graph/csr.h"

namespace fcm::graph {

CsrMatrix::CsrMatrix(const Matrix& dense) : n_(dense.size()) {
  row_ptr_.reserve(n_ + 1);
  row_ptr_.push_back(0);
  const double* data = dense.data();
  for (std::size_t i = 0; i < n_; ++i) {
    const double* row = data + i * n_;
    for (std::size_t j = 0; j < n_; ++j) {
      if (row[j] != 0.0) {
        col_.push_back(static_cast<std::uint32_t>(j));
        val_.push_back(row[j]);
      }
    }
    row_ptr_.push_back(col_.size());
  }
}

Matrix CsrMatrix::to_dense() const {
  Matrix dense(n_);
  double* data = dense.data();
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t e = row_ptr_[i]; e < row_ptr_[i + 1]; ++e) {
      data[i * n_ + col_[e]] = val_[e];
    }
  }
  return dense;
}

}  // namespace fcm::graph
