#include "graph/series.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/error.h"
#include "exec/executor.h"
#include "graph/csr.h"
#include "obs/obs.h"

namespace fcm::graph {

namespace {

// Kernel selection (see header): P at most kSparseFill full takes the
// sparse kernel, or at most kSparseFillLarge full once n >= kSparseLargeN.
constexpr double kSparseFill = 0.15;
constexpr double kSparseFillLarge = 0.35;
constexpr std::size_t kSparseLargeN = 512;
// Rows per parallel work unit (scheduling granule only — results never
// depend on it).
constexpr std::size_t kRowsPerTask = 16;
// Column tile width of the dense kernel (cache shaping only — results
// never depend on it).
constexpr std::size_t kColBlock = 128;

// term' rows [r0, r1) of term × p, dense and column-tiled. The nonzero
// coefficients of the term row and their p rows are gathered once; each
// column tile then folds them in ascending k, so every output element sees
// the reference loop's additions in the reference order while its tile of
// `out` stays in cache across the k sweep.
void dense_rows(const double* term, const double* p, double* next,
                std::size_t n, std::size_t r0, std::size_t r1) {
  std::vector<double> coeffs;
  std::vector<const double*> rows;
  coeffs.reserve(n);
  rows.reserve(n);
  for (std::size_t i = r0; i < r1; ++i) {
    double* out = next + i * n;
    std::fill(out, out + n, 0.0);
    const double* trow = term + i * n;
    coeffs.clear();
    rows.clear();
    for (std::size_t k = 0; k < n; ++k) {
      const double a = trow[k];
      if (a == 0.0) continue;
      coeffs.push_back(a);
      rows.push_back(p + k * n);
    }
    for (std::size_t jb = 0; jb < n; jb += kColBlock) {
      const std::size_t je = std::min(n, jb + kColBlock);
      for (std::size_t r = 0; r < rows.size(); ++r) {
        const double a = coeffs[r];
        const double* prow = rows[r];
        for (std::size_t j = jb; j < je; ++j) out[j] += a * prow[j];
      }
    }
  }
}

// term' rows [r0, r1) of term × p with p in CSR form: skips exactly the
// p[k][j] == 0.0 contributions, which are additive no-ops for nonnegative
// matrices. Columns are distinct within a CSR row, so each scattered add
// touches its own output and per-element values follow ascending k.
void sparse_rows(const double* term, const CsrMatrix& p, double* next,
                 std::size_t n, std::size_t r0, std::size_t r1) {
  const std::uint32_t* cols = p.cols();
  const double* vals = p.values();
  for (std::size_t i = r0; i < r1; ++i) {
    double* out = next + i * n;
    std::fill(out, out + n, 0.0);
    const double* trow = term + i * n;
    for (std::size_t k = 0; k < n; ++k) {
      const double a = trow[k];
      if (a == 0.0) continue;
      const std::size_t end = p.row_end(k);
      for (std::size_t e = p.row_begin(k); e < end; ++e) {
        out[cols[e]] += a * vals[e];
      }
    }
  }
}

// Runs fn(r0, r1) over disjoint row ranges covering [0, n). Row ownership is
// exclusive, so the output is bitwise independent of the thread count and of
// which worker claims which range.
template <typename RowFn>
void for_row_ranges(std::size_t n, std::uint32_t threads, RowFn fn) {
  if (n == 0) return;
  const std::size_t tasks = (n + kRowsPerTask - 1) / kRowsPerTask;
  exec::parallel_for_blocks(
      tasks, threads, [&](std::uint64_t t, std::uint32_t /*lane*/) {
        const std::size_t r0 = static_cast<std::size_t>(t) * kRowsPerTask;
        fn(r0, std::min(n, r0 + kRowsPerTask));
      });
}

double buffer_max_abs(const std::vector<double>& buf) noexcept {
  double m = 0.0;
  for (const double v : buf) m = std::max(m, std::fabs(v));
  return m;
}

}  // namespace

Matrix power_series_sum_reference(const Matrix& p, int max_order,
                                  double epsilon) {
  FCM_REQUIRE(max_order >= 1, "series needs at least the first-order term");
  FCM_OBS_COUNT("series.kernel.reference", 1);
  Matrix sum = p;
  Matrix term = p;
  for (int order = 2; order <= max_order; ++order) {
    term = term * p;
    if (epsilon > 0.0 && term.max_abs() < epsilon) break;
    sum += term;
  }
  return sum;
}

Matrix power_series_sum(const Matrix& p, const SeriesOptions& options) {
  FCM_REQUIRE(options.max_order >= 1,
              "series needs at least the first-order term");
  const std::size_t n = p.size();
  FCM_OBS_SPAN("series.power_sum", n);
  const std::uint32_t threads = exec::resolve_threads(
      options.threads, (n + kRowsPerTask - 1) / kRowsPerTask);

  // One pass over P picks the kernel from its fill ratio and sign (see
  // header).
  const double* pdata = p.data();
  std::size_t nonzero = 0;
  bool nonnegative = true;
  for (std::size_t i = 0; i < n * n; ++i) {
    nonzero += pdata[i] != 0.0 ? 1 : 0;
    nonnegative = nonnegative && !(pdata[i] < 0.0);
  }
  const double fill =
      n == 0 ? 1.0 : static_cast<double>(nonzero) / static_cast<double>(n * n);
  const bool sparse =
      nonnegative &&
      fill <= (n >= kSparseLargeN ? kSparseFillLarge : kSparseFill);
  FCM_OBS_COUNT("series.fill_scans", 1);
  FCM_OBS_COUNT(sparse ? "series.kernel.sparse" : "series.kernel.dense", 1);

  // In-place buffers: `sum` accumulates, `term` holds P^(order-1) and
  // `next` receives term × P. No Matrix is allocated per order.
  std::vector<double> sum(pdata, pdata + n * n);
  std::vector<double> term = sum;
  const CsrMatrix csr = sparse ? CsrMatrix(p) : CsrMatrix(Matrix(0));
  std::vector<double> next(n * n, 0.0);
  std::uint64_t orders_computed = 0;
  bool epsilon_stop = false;
  for (int order = 2; order <= options.max_order; ++order) {
    for_row_ranges(n, threads, [&](std::size_t r0, std::size_t r1) {
      if (sparse) {
        sparse_rows(term.data(), csr, next.data(), n, r0, r1);
      } else {
        dense_rows(term.data(), pdata, next.data(), n, r0, r1);
      }
    });
    ++orders_computed;
    term.swap(next);
    if (options.epsilon > 0.0 && buffer_max_abs(term) < options.epsilon) {
      epsilon_stop = true;
      break;
    }
    for (std::size_t i = 0; i < n * n; ++i) sum[i] += term[i];
  }
  FCM_OBS_COUNT("series.orders", orders_computed);
  if (epsilon_stop) FCM_OBS_COUNT("series.epsilon_stops", 1);

  Matrix result(n);
  if (n > 0) std::memcpy(result.data(), sum.data(), n * n * sizeof(double));
  return result;
}

}  // namespace fcm::graph
