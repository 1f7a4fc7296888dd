// kSimd backend, AArch64 flavor: NEON intrinsics for the floating-point
// kernels. NEON has no 64-bit vector multiply, so the PCG leapfrog and the
// CSR scatter keep the kAutoVec implementations (identical results; the
// compiler already does well on those loops at baseline AArch64). NEON is
// architecturally mandatory on AArch64, so no runtime probe is needed.
#if defined(FCM_SIMD_NEON)

#include <arm_neon.h>

#include <algorithm>
#include <cmath>

#include "common/simd_tables.h"

namespace fcm::simd::detail {

namespace {

void axpy_neon(double* out, const double* p, double a, std::size_t n) {
  const float64x2_t va = vdupq_n_f64(a);
  std::size_t j = 0;
  for (; j + 2 <= n; j += 2) {
    // Separate multiply and add (no vfmaq): fused rounding would diverge
    // from the scalar reference.
    const float64x2_t prod = vmulq_f64(va, vld1q_f64(p + j));
    vst1q_f64(out + j, vaddq_f64(vld1q_f64(out + j), prod));
  }
  for (; j < n; ++j) out[j] += a * p[j];
}

void less_than_neon(const double* u, double threshold, std::uint8_t* dst,
                    std::size_t n) {
  const float64x2_t t = vdupq_n_f64(threshold);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t mask = vcltq_f64(vld1q_f64(u + i), t);
    dst[i + 0] = static_cast<std::uint8_t>(vgetq_lane_u64(mask, 0) & 1);
    dst[i + 1] = static_cast<std::uint8_t>(vgetq_lane_u64(mask, 1) & 1);
  }
  for (; i < n; ++i) {
    dst[i] = u[i] < threshold ? std::uint8_t{1} : std::uint8_t{0};
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
    autovec::fill_uniforms, axpy_neon,
    autovec::axpy_rows,     autovec::csr_axpy,
    less_than_neon,         autovec::bernoulli,
    min_complement_neon,
};

}  // namespace fcm::simd::detail

#endif  // FCM_SIMD_NEON
