// kScalarRef backend: the kept reference semantics of every batched kernel,
// one element at a time. This translation unit is compiled with the
// compiler's auto-vectorizer disabled (-fno-tree-vectorize
// -fno-tree-slp-vectorize -ffp-contract=off, see src/common/CMakeLists.txt)
// so that (a) bench_simd speedups measure vectorization rather than two
// flavors of compiler output, and (b) the reference stays the plain serial
// evaluation order the differential tests pin the other backends to.
#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "common/simd_tables.h"

namespace fcm::simd::detail {

namespace {

void fill_uniforms_scalar(std::uint64_t* state, std::uint64_t inc,
                          double* dst, std::size_t n) {
  std::uint64_t s = *state;
  for (std::size_t i = 0; i < n; ++i) {
    // Rng::uniform(): two raw 32-bit draws, high word first, 53 bits kept.
    const std::uint64_t hi = rng_detail::output(s);
    s = rng_detail::step(s, inc);
    const std::uint64_t lo = rng_detail::output(s);
    s = rng_detail::step(s, inc);
    const std::uint64_t bits = ((hi << 32) | lo) >> 11;
    dst[i] = static_cast<double>(bits) * 0x1.0p-53;
  }
  *state = s;
}

void axpy_scalar(double* out, const double* p, double a, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) out[j] += a * p[j];
}

void axpy_rows_scalar(double* out, const double* const* rows,
                      const double* coeffs, std::size_t m, std::size_t n) {
  // The reference semantics of the fused fold: literally m sequential axpy
  // sweeps, one rounding per (row, element) step in ascending row order.
  for (std::size_t r = 0; r < m; ++r) {
    axpy_scalar(out, rows[r], coeffs[r], n);
  }
}

void csr_axpy_scalar(double* out, const std::uint32_t* cols,
                     const double* vals, double a, std::size_t n) {
  for (std::size_t e = 0; e < n; ++e) out[cols[e]] += a * vals[e];
}

void less_than_scalar(const double* u, double threshold, std::uint8_t* dst,
                      std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = u[i] < threshold ? std::uint8_t{1} : std::uint8_t{0};
  }
}

void bernoulli_scalar(std::uint64_t* state, std::uint64_t inc,
                      double threshold, std::uint8_t* dst, std::size_t n) {
  // Reference semantics: draw the uniform, compare as a double.
  std::uint64_t s = *state;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t hi = rng_detail::output(s);
    s = rng_detail::step(s, inc);
    const std::uint64_t lo = rng_detail::output(s);
    s = rng_detail::step(s, inc);
    const std::uint64_t bits = ((hi << 32) | lo) >> 11;
    const double u = static_cast<double>(bits) * 0x1.0p-53;
    dst[i] = u < threshold ? std::uint8_t{1} : std::uint8_t{0};
  }
  *state = s;
}

double min_complement_scalar(const double* s, std::size_t n) {
  double min_value = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    // The Probability::clamped contract: NaN maps to 0, then clamp.
    const double c = 1.0 - s[i];
    const double clamped = std::isnan(c) ? 0.0 : std::clamp(c, 0.0, 1.0);
    min_value = std::min(min_value, clamped);
  }
  return min_value;
}

}  // namespace

const KernelTable kScalarTable = {
    fill_uniforms_scalar,  axpy_scalar,
    axpy_rows_scalar,      csr_axpy_scalar,
    less_than_scalar,      bernoulli_scalar,
    min_complement_scalar,
};

}  // namespace fcm::simd::detail
