// kAutoVec backend: the same kernels in structure-of-arrays form, written so
// the compiler's auto-vectorizer can profitably vectorize them under the
// baseline architecture flags. No intrinsics; identical results to
// kScalarRef by construction (integer leapfrog is exact, floating-point
// loops are per-element or reorder-safe; see src/common/simd.h).
//
// Built with -ffp-contract=off like every simd TU: a fused multiply-add
// rounds once where the reference rounds twice, which would break bitwise
// parity of axpy/product kernels across backends.
#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "common/simd_tables.h"

namespace fcm::simd::detail {

namespace autovec {

namespace {
// Leapfrog width: lane l owns raw positions 2l, 2l+1 (mod 2*kLanes). Eight
// independent LCG chains give the out-of-order core (or the vectorizer)
// enough parallelism to hide the 64-bit multiply latency that serializes
// the scalar generator.
constexpr std::size_t kLanes = 8;
}  // namespace

void fill_uniforms(std::uint64_t* state, std::uint64_t inc, double* dst,
                   std::size_t n) {
  std::uint64_t s = *state;
  const std::size_t iterations = n / kLanes;
  if (iterations > 0) {
    // Lane l starts at raw position 2l of the stream.
    std::uint64_t lane[kLanes];
    std::uint64_t cursor = s;
    for (std::size_t l = 0; l < kLanes; ++l) {
      lane[l] = cursor;
      cursor = rng_detail::step(cursor, inc);
      cursor = rng_detail::step(cursor, inc);
    }
    // After its two explicit draws a lane jumps the remaining
    // 2*kLanes - 1 positions in one composite step.
    const rng_detail::Jump jump =
        rng_detail::jump_coefficients(inc, 2 * kLanes - 1);
    for (std::size_t it = 0; it < iterations; ++it) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        const std::uint64_t hi = rng_detail::output(lane[l]);
        const std::uint64_t stepped = rng_detail::step(lane[l], inc);
        const std::uint64_t lo = rng_detail::output(stepped);
        lane[l] = stepped * jump.mult + jump.plus;
        const std::uint64_t bits = ((hi << 32) | lo) >> 11;
        dst[it * kLanes + l] = static_cast<double>(bits) * 0x1.0p-53;
      }
    }
    // Lane 0 now sits exactly at raw position 2 * kLanes * iterations: the
    // serial resume point for the remainder (and the caller's next draw).
    s = lane[0];
  }
  for (std::size_t i = iterations * kLanes; i < n; ++i) {
    const std::uint64_t hi = rng_detail::output(s);
    s = rng_detail::step(s, inc);
    const std::uint64_t lo = rng_detail::output(s);
    s = rng_detail::step(s, inc);
    const std::uint64_t bits = ((hi << 32) | lo) >> 11;
    dst[i] = static_cast<double>(bits) * 0x1.0p-53;
  }
  *state = s;
}

void axpy(double* out, const double* p, double a, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) out[j] += a * p[j];
}

void axpy_rows(double* out, const double* const* rows, const double* coeffs,
               std::size_t m, std::size_t n) {
  // Four rows per sweep: the j loop stays per-element independent (each
  // element's adds run in ascending row order, exactly the sequential-axpy
  // chain) while out traffic drops 4x. Remainder rows fall back to axpy.
  std::size_t r = 0;
  for (; r + 4 <= m; r += 4) {
    const double* p0 = rows[r + 0];
    const double* p1 = rows[r + 1];
    const double* p2 = rows[r + 2];
    const double* p3 = rows[r + 3];
    const double a0 = coeffs[r + 0];
    const double a1 = coeffs[r + 1];
    const double a2 = coeffs[r + 2];
    const double a3 = coeffs[r + 3];
    for (std::size_t j = 0; j < n; ++j) {
      double acc = out[j];
      acc += a0 * p0[j];
      acc += a1 * p1[j];
      acc += a2 * p2[j];
      acc += a3 * p3[j];
      out[j] = acc;
    }
  }
  for (; r < m; ++r) axpy(out, rows[r], coeffs[r], n);
}

void csr_axpy(double* out, const std::uint32_t* cols, const double* vals,
              double a, std::size_t n) {
  for (std::size_t e = 0; e < n; ++e) out[cols[e]] += a * vals[e];
}

void less_than(const double* u, double threshold, std::uint8_t* dst,
               std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = u[i] < threshold ? std::uint8_t{1} : std::uint8_t{0};
  }
}

void bernoulli(std::uint64_t* state, std::uint64_t inc, double threshold,
               std::uint8_t* dst, std::size_t n) {
  // Leapfrogged uniforms through a cache-resident staging buffer, then the
  // elementwise compare — the composition is trivially bit-identical to
  // fill_uniforms + less_than.
  constexpr std::size_t kChunk = 256;
  double buffer[kChunk];
  for (std::size_t done = 0; done < n; done += kChunk) {
    const std::size_t count = std::min(kChunk, n - done);
    fill_uniforms(state, inc, buffer, count);
    less_than(buffer, threshold, dst + done, count);
  }
}

double min_complement(const double* s, std::size_t n) {
  double min_value = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    // Branchless Probability::clamped: NaN fails both comparisons and maps
    // to 0.0, matching the scalar reference exactly (1.0 - s never yields
    // -0.0, so the sign of zero cannot diverge either).
    double c = 1.0 - s[i];
    c = c > 0.0 ? c : 0.0;
    c = c < 1.0 ? c : 1.0;
    min_value = min_value < c ? min_value : c;
  }
  return min_value;
}

}  // namespace autovec

const KernelTable kAutoVecTable = {
    autovec::fill_uniforms,  autovec::axpy,
    autovec::axpy_rows,      autovec::csr_axpy,
    autovec::less_than,      autovec::bernoulli,
    autovec::min_complement,
};

}  // namespace fcm::simd::detail
