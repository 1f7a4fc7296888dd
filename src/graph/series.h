// Kernels for the Eq. 3 separation power series P + P² + … + P^k.
//
// `power_series_sum` evaluates the series with one of two multiply
// kernels, chosen from P itself:
//
//   dense  — the naive multiply blocked over column tiles, with in-place
//            term/accumulator buffers (no per-order Matrix allocation)
//            and unchecked element access;
//   sparse — a CSR snapshot of P right-multiplies the dense term, which
//            costs O(n · nnz(P)) per order instead of O(n³).
//
// One pass over P measures its fill ratio and sign: the sparse kernel runs
// when P is nonnegative and at most 15% full (35% once n reaches 512, where
// the dense kernel's cache-tiling advantage fades as rows stop fitting in
// cache), the dense kernel otherwise. `power_series_sum_reference` keeps
// the original naive per-order triple loop as the differential baseline
// for tests and benches.
//
// Determinism: every kernel performs, for each output element (i, j), the
// same additions in the same ascending-k order as the reference loop, so
// dense and blocked results are bitwise identical for any matrix, tile
// shape, and thread count (workers own disjoint row ranges; no shared
// accumulator exists). The sparse kernel skips exactly the terms where
// P[k][j] == 0.0; for nonnegative matrices (the influence domain — entries
// are probabilities) adding those a·0.0 terms is a bitwise no-op, so the
// sparse path is bitwise identical to the dense one there. The sparse
// kernel only runs after nonnegativity is verified, which makes the
// selection unconditionally safe.
#pragma once

#include <cstdint>

#include "graph/matrix.h"

namespace fcm::graph {

/// Evaluation controls for `power_series_sum`.
struct SeriesOptions {
  /// Highest matrix power included (>= 1).
  int max_order = 6;
  /// Stop early once a term's largest entry falls below this (0 = never).
  double epsilon = 0.0;
  /// Worker threads for the per-order multiply. 0 = hardware concurrency.
  /// The result is bitwise identical for every value.
  std::uint32_t threads = 1;
};

/// P + P² + … + P^max_order under `options`.
Matrix power_series_sum(const Matrix& p, const SeriesOptions& options);

/// The original naive implementation, exported as the differential baseline.
Matrix power_series_sum_reference(const Matrix& p, int max_order,
                                  double epsilon = 0.0);

}  // namespace fcm::graph
