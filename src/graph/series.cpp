#include "graph/series.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/error.h"
#include "graph/csr.h"
#include "obs/obs.h"

namespace fcm::graph {

namespace {

// next = term × p with p in CSR form, skipping the term's zero coefficients
// and, through the CSR snapshot, p's zero entries. Columns are distinct
// within a CSR row, so each scattered add touches its own output and every
// output element folds its contributions in ascending k.
void multiply(const std::vector<double>& term, const CsrMatrix& p,
              std::vector<double>& next) {
  const std::size_t n = p.size();
  const std::uint32_t* cols = p.cols();
  const double* vals = p.values();
  std::fill(next.begin(), next.end(), 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double* out = next.data() + i * n;
    const double* trow = term.data() + i * n;
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

  // In-place buffers: `sum` accumulates, `term` holds P^(order-1) and
  // `next` receives term × P.
  const double* pdata = p.data();
  std::vector<double> sum(pdata, pdata + n * n);
  std::vector<double> term = sum;
  std::vector<double> next(n * n);
  const CsrMatrix csr(p);
  std::uint64_t orders_computed = 0;
  bool epsilon_stop = false;
  for (int order = 2; order <= options.max_order; ++order) {
    multiply(term, csr, next);
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
