// kSimd backend, AArch64 flavor: NEON intrinsics for the min-separation
// fold. The other kernels are plain structure-of-arrays loops the compiler
// vectorizes at baseline AArch64: NEON has no 64-bit vector multiply to
// speed up the PCG leapfrog and the lottery, and the compiler already does
// well on the row updates. NEON is architecturally mandatory on AArch64,
// so no runtime probe is needed.
//
// Built with -ffp-contract=off like every simd TU: a fused multiply-add
// rounds once where the reference rounds twice, which would break bitwise
// parity of the row-update kernels across backends.
#if defined(FCM_SIMD_NEON)

#include <arm_neon.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "common/simd_tables.h"

namespace fcm::simd::detail {

namespace {

// Leapfrog width: lane l owns raw positions 2l, 2l+1 (mod 2*kLanes). Eight
// independent LCG chains give the out-of-order core (or the vectorizer)
// enough parallelism to hide the 64-bit multiply latency that serializes
// the scalar generator.
constexpr std::size_t kLanes = 8;

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

double min_complement_neon(const double* s, std::size_t n) {
  const float64x2_t ones = vdupq_n_f64(1.0);
  const float64x2_t zeros = vdupq_n_f64(0.0);
  float64x2_t acc = ones;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    float64x2_t c = vsubq_f64(ones, vld1q_f64(s + i));
    // vmaxnmq/vminnmq implement IEEE maxNum/minNum: NaN loses against the
    // numeric operand, so NaN complements clamp to 0 per
    // Probability::clamped.
    c = vmaxnmq_f64(c, zeros);
    c = vminnmq_f64(c, ones);
    acc = vminnmq_f64(acc, c);
  }
  double min_value = vminnmvq_f64(acc);
  for (; i < n; ++i) {
    const double c = 1.0 - s[i];
    const double clamped = std::isnan(c) ? 0.0 : std::clamp(c, 0.0, 1.0);
    min_value = std::min(min_value, clamped);
  }
  return min_value;
}

}  // namespace

const KernelTable kSimdTable = {
    fill_uniforms, axpy_rows,           csr_axpy,
    bernoulli,     min_complement_neon,
};

}  // namespace fcm::simd::detail

#endif  // FCM_SIMD_NEON
