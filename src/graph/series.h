// The Eq. 3 separation power series P + P² + … + P^k.
//
// `power_series_sum` evaluates the series with one multiply kernel: each
// order right-multiplies the dense term by a CSR snapshot of P
// (graph/csr.h), skipping zero coefficients on both sides, which costs
// O(n · nnz(P)) per order instead of O(n³). The term and accumulator live in
// in-place buffers, so no Matrix is allocated per order.
// `power_series_sum_reference` keeps the original naive per-order triple
// loop as the differential baseline for tests and benches.
//
// Determinism: for each output element (i, j) the kernel performs the
// reference loop's additions in the same ascending-k order, minus the
// terms where P[k][j] == 0.0. A skipped a·0.0 product is ±0.0, and adding
// ±0.0 changes no value except −0.0; an accumulator that starts at +0.0
// never holds −0.0. So the result is bitwise equal to the reference for
// every P whose terms stay finite, whatever its sign or fill (an infinite
// a times a skipped 0.0 would have added NaN).
#pragma once

#include "graph/matrix.h"

namespace fcm::graph {

/// Evaluation controls for `power_series_sum`.
struct SeriesOptions {
  /// Highest matrix power included (>= 1).
  int max_order = 6;
  /// Stop early once a term's largest entry falls below this (0 = never).
  double epsilon = 0.0;
};

/// P + P² + … + P^max_order under `options`.
Matrix power_series_sum(const Matrix& p, const SeriesOptions& options);

/// The original naive implementation, exported as the differential baseline.
Matrix power_series_sum_reference(const Matrix& p, int max_order,
                                  double epsilon = 0.0);

}  // namespace fcm::graph
