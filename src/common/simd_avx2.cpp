// kSimd backend, x86-64 flavor: AVX2 intrinsics. This is the only
// translation unit built with -mavx2 (see src/common/CMakeLists.txt); the
// dispatcher selects this table at runtime only after
// __builtin_cpu_supports("avx2") confirms the CPU, so the rest of the
// binary stays runnable on baseline x86-64.
//
// Bitwise parity with kScalarRef is engineered, not hoped for:
//  - The PCG leapfrog is exact 64-bit integer arithmetic; AVX2 lacks a
//    64x64 multiply, so it is composed from three 32x32 partial products
//    (the cross terms shifted into place), which is exact mod 2^64.
//  - u64 -> double conversion (no AVX2 instruction) uses the standard
//    exponent-bias trick: OR each 32-bit word into the mantissa of 2^52 and
//    subtract 2^52, then combine as hi * 2^-32 + (lo >> 11) * 2^-53. Every
//    step is exact and the sum has at most 53 significant bits, so the
//    result equals the scalar static_cast<double>(bits) * 2^-53.
//  - Floating kernels use separate mul/add (never FMA) in the reference
//    association order; min/max follow the clamped-probability contract
//    (x86 min/max return the second operand on NaN, so clamping must apply
//    max-with-0 first to send NaN to 0 like Probability::clamped).
#if defined(FCM_SIMD_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

#include "common/rng.h"
#include "common/simd_tables.h"

namespace fcm::simd::detail {

namespace {

// Low 64 bits of a * b with the high halves of both operands precomputed:
// b is a loop-constant multiplier and a feeds two multiplications (jump and
// step), so both srli-by-32 hoist out of this helper.
inline __m256i mul64c(__m256i a, __m256i a_hi, __m256i b,
                      __m256i b_hi) noexcept {
  const __m256i lolo = _mm256_mul_epu32(a, b);
  const __m256i cross = _mm256_add_epi64(_mm256_mul_epu32(a_hi, b),
                                         _mm256_mul_epu32(a, b_hi));
  return _mm256_add_epi64(lolo, _mm256_slli_epi64(cross, 32));
}

// The xorshifted word of the XSH-RR output, duplicated into both 32-bit
// halves of each 64-bit lane. The low word of xsh >> 27 is already the
// clean 32-bit xorshifted value (the stray bits sit in the high word, which
// the word-duplicating shuffle overwrites), so no mask is needed; the
// shuffle also runs on the shuffle port, off the shift/multiply ports.
// With the word doubled, ((x | x << 32) >> rot) & mask is the 32-bit
// rotate-right for rot in [0, 31].
inline __m256i xsh_doubled(__m256i old) noexcept {
  const __m256i xsh = _mm256_xor_si256(_mm256_srli_epi64(old, 18), old);
  return _mm256_shuffle_epi32(_mm256_srli_epi64(xsh, 27),
                              _MM_SHUFFLE(2, 2, 0, 0));
}

// XSH-RR output permutation on four pre-step states at once, clean in the
// low 32 bits of each lane.
inline __m256i pcg_output4(__m256i old) noexcept {
  const __m256i mask32 = _mm256_set1_epi64x(0xFFFFFFFFLL);
  const __m256i rot = _mm256_srli_epi64(old, 59);
  return _mm256_and_si256(_mm256_srlv_epi64(xsh_doubled(old), rot), mask32);
}

void fill_uniforms_avx2(std::uint64_t* state, std::uint64_t inc, double* dst,
                        std::size_t n) {
  constexpr std::size_t kLanes = 8;  // two 4-lane register chains
  std::uint64_t s = *state;
  const std::size_t iterations = n / kLanes;
  if (iterations > 0) {
    // Lane l starts at raw position 2l; two registers cover lanes 0..7.
    alignas(32) std::uint64_t lane[kLanes];
    std::uint64_t cursor = s;
    for (std::size_t l = 0; l < kLanes; ++l) {
      lane[l] = cursor;
      cursor = rng_detail::step(cursor, inc);
      cursor = rng_detail::step(cursor, inc);
    }
    __m256i s0 = _mm256_load_si256(reinterpret_cast<const __m256i*>(lane));
    __m256i s1 =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(lane + 4));
    const __m256i mult = _mm256_set1_epi64x(
        static_cast<long long>(rng_detail::kMultiplier));
    const __m256i mult_hi = _mm256_srli_epi64(mult, 32);
    const __m256i add = _mm256_set1_epi64x(static_cast<long long>(inc));
    // The loop-carried dependency is a single mul64: each chain jumps
    // straight from the even (hi-word) state to the next iteration's even
    // state, 2*kLanes raw steps ahead. The odd (lo-word) state branches off
    // the critical path with one ordinary step.
    const rng_detail::Jump jump =
        rng_detail::jump_coefficients(inc, 2 * kLanes);
    const __m256i jmult =
        _mm256_set1_epi64x(static_cast<long long>(jump.mult));
    const __m256i jmult_hi = _mm256_srli_epi64(jmult, 32);
    const __m256i jplus =
        _mm256_set1_epi64x(static_cast<long long>(jump.plus));
    const __m256i exp_magic =
        _mm256_set1_epi64x(0x4330000000000000LL);  // bit pattern of 2^52
    const __m256d dbl_magic = _mm256_set1_pd(0x1.0p52);
    const __m256d scale_hi = _mm256_set1_pd(0x1.0p-32);
    const __m256d scale_lo = _mm256_set1_pd(0x1.0p-53);
    for (std::size_t it = 0; it < iterations; ++it) {
      const __m256i old0_a = s0;
      const __m256i old0_b = s1;
      const __m256i old0_a_hi = _mm256_srli_epi64(old0_a, 32);
      const __m256i old0_b_hi = _mm256_srli_epi64(old0_b, 32);
      s0 = _mm256_add_epi64(mul64c(old0_a, old0_a_hi, jmult, jmult_hi),
                            jplus);
      s1 = _mm256_add_epi64(mul64c(old0_b, old0_b_hi, jmult, jmult_hi),
                            jplus);
      const __m256i old1_a =
          _mm256_add_epi64(mul64c(old0_a, old0_a_hi, mult, mult_hi), add);
      const __m256i old1_b =
          _mm256_add_epi64(mul64c(old0_b, old0_b_hi, mult, mult_hi), add);
      // uniform = ((hi << 32 | lo) >> 11) * 2^-53
      //         = hi * 2^-32 + (lo >> 11) * 2^-53,
      // both parts exact under the 2^52 mantissa-OR conversion and the sum
      // exactly representable (53 significant bits), so this equals the
      // scalar static_cast<double> path bit for bit.
      const __m256i hi_a = pcg_output4(old0_a);
      const __m256i lo_a = pcg_output4(old1_a);
      const __m256i hi_b = pcg_output4(old0_b);
      const __m256i lo_b = pcg_output4(old1_b);
      const __m256d d_hi_a = _mm256_sub_pd(
          _mm256_castsi256_pd(_mm256_or_si256(hi_a, exp_magic)), dbl_magic);
      const __m256d d_lo_a = _mm256_sub_pd(
          _mm256_castsi256_pd(
              _mm256_or_si256(_mm256_srli_epi64(lo_a, 11), exp_magic)),
          dbl_magic);
      const __m256d d_hi_b = _mm256_sub_pd(
          _mm256_castsi256_pd(_mm256_or_si256(hi_b, exp_magic)), dbl_magic);
      const __m256d d_lo_b = _mm256_sub_pd(
          _mm256_castsi256_pd(
              _mm256_or_si256(_mm256_srli_epi64(lo_b, 11), exp_magic)),
          dbl_magic);
      _mm256_storeu_pd(dst + it * kLanes,
                       _mm256_add_pd(_mm256_mul_pd(d_hi_a, scale_hi),
                                     _mm256_mul_pd(d_lo_a, scale_lo)));
      _mm256_storeu_pd(dst + it * kLanes + 4,
                       _mm256_add_pd(_mm256_mul_pd(d_hi_b, scale_hi),
                                     _mm256_mul_pd(d_lo_b, scale_lo)));
    }
    // Lane 0 sits exactly at the serial resume position.
    s = static_cast<std::uint64_t>(_mm256_extract_epi64(s0, 0));
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

void axpy_avx2(double* out, const double* p, double a, std::size_t n) {
  const __m256d va = _mm256_set1_pd(a);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d prod = _mm256_mul_pd(va, _mm256_loadu_pd(p + j));
    _mm256_storeu_pd(out + j, _mm256_add_pd(_mm256_loadu_pd(out + j), prod));
  }
  for (; j < n; ++j) out[j] += a * p[j];
}

void axpy_rows_avx2(double* out, const double* const* rows,
                    const double* coeffs, std::size_t m, std::size_t n) {
  // Four rows per sweep with the broadcast coefficients hoisted: one
  // load/store of out per vector of elements regardless of row count, adds
  // applied in ascending row order like the sequential axpy chain.
  std::size_t r = 0;
  for (; r + 4 <= m; r += 4) {
    const double* p0 = rows[r + 0];
    const double* p1 = rows[r + 1];
    const double* p2 = rows[r + 2];
    const double* p3 = rows[r + 3];
    const __m256d a0 = _mm256_set1_pd(coeffs[r + 0]);
    const __m256d a1 = _mm256_set1_pd(coeffs[r + 1]);
    const __m256d a2 = _mm256_set1_pd(coeffs[r + 2]);
    const __m256d a3 = _mm256_set1_pd(coeffs[r + 3]);
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      __m256d acc = _mm256_loadu_pd(out + j);
      acc = _mm256_add_pd(acc, _mm256_mul_pd(a0, _mm256_loadu_pd(p0 + j)));
      acc = _mm256_add_pd(acc, _mm256_mul_pd(a1, _mm256_loadu_pd(p1 + j)));
      acc = _mm256_add_pd(acc, _mm256_mul_pd(a2, _mm256_loadu_pd(p2 + j)));
      acc = _mm256_add_pd(acc, _mm256_mul_pd(a3, _mm256_loadu_pd(p3 + j)));
      _mm256_storeu_pd(out + j, acc);
    }
    for (; j < n; ++j) {
      double acc = out[j];
      acc += coeffs[r + 0] * p0[j];
      acc += coeffs[r + 1] * p1[j];
      acc += coeffs[r + 2] * p2[j];
      acc += coeffs[r + 3] * p3[j];
      out[j] = acc;
    }
  }
  for (; r < m; ++r) axpy_avx2(out, rows[r], coeffs[r], n);
}

void csr_axpy_avx2(double* out, const std::uint32_t* cols,
                   const double* vals, double a, std::size_t n) {
  // Products vectorize; the scatter does not without AVX-512, so the
  // read-modify-write stays scalar (columns in a CSR row are distinct, so
  // order is value-neutral anyway).
  const __m256d va = _mm256_set1_pd(a);
  alignas(32) double prod[4];
  std::size_t e = 0;
  for (; e + 4 <= n; e += 4) {
    _mm256_store_pd(prod, _mm256_mul_pd(va, _mm256_loadu_pd(vals + e)));
    out[cols[e + 0]] += prod[0];
    out[cols[e + 1]] += prod[1];
    out[cols[e + 2]] += prod[2];
    out[cols[e + 3]] += prod[3];
  }
  for (; e < n; ++e) out[cols[e]] += a * vals[e];
}

// 256-entry mask expansion: byte b of kMaskBytes[m] is bit b of m, so a
// movemask pair turns into one 8-byte store instead of eight byte stores.
constexpr std::array<std::uint64_t, 256> kMaskBytes = [] {
  std::array<std::uint64_t, 256> table{};
  for (int m = 0; m < 256; ++m) {
    std::uint64_t bytes = 0;
    for (int b = 0; b < 8; ++b) {
      bytes |= static_cast<std::uint64_t>((m >> b) & 1) << (8 * b);
    }
    table[static_cast<std::size_t>(m)] = bytes;
  }
  return table;
}();

void less_than_avx2(const double* u, double threshold, std::uint8_t* dst,
                    std::size_t n) {
  const __m256d t = _mm256_set1_pd(threshold);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const int lo =
        _mm256_movemask_pd(_mm256_cmp_pd(_mm256_loadu_pd(u + i), t,
                                         _CMP_LT_OQ));
    const int hi =
        _mm256_movemask_pd(_mm256_cmp_pd(_mm256_loadu_pd(u + i + 4), t,
                                         _CMP_LT_OQ));
    const std::uint64_t bytes =
        kMaskBytes[static_cast<std::size_t>(lo | (hi << 4))];
    std::memcpy(dst + i, &bytes, sizeof(bytes));
  }
  for (; i < n; ++i) dst[i] = u[i] < threshold ? std::uint8_t{1} : std::uint8_t{0};
}

void bernoulli_avx2(std::uint64_t* state, std::uint64_t inc, double threshold,
                    std::uint8_t* dst, std::size_t n) {
  // Integer-domain lottery: u = bits * 2^-53 exactly, and scaling the
  // threshold by 2^53 is exact too, so u < t ⟺ bits < ceil(t * 2^53).
  // The 53-bit integers never leave the vector registers — no u64→double
  // conversion, no uniforms buffer, one 8-byte flag store per iteration.
  const double scaled = std::ldexp(threshold, 53);
  std::uint64_t cutoff;
  if (!(scaled > 0.0)) {
    cutoff = 0;  // t <= 0 (or NaN): u < t never holds
  } else if (scaled >= 0x1.0p53) {
    // t >= 1: every flag fires. Write the flags directly and advance the
    // stream its 2n raw steps in O(log n) via the jump polynomial.
    const rng_detail::Jump jump = rng_detail::jump_coefficients(
        inc, 2 * static_cast<std::uint64_t>(n));
    *state = *state * jump.mult + jump.plus;
    std::memset(dst, 1, n);
    return;
  } else {
    cutoff = static_cast<std::uint64_t>(std::ceil(scaled));
  }

  constexpr std::size_t kLanes = 8;
  std::uint64_t s = *state;
  const std::size_t iterations = n / kLanes;
  if (iterations > 0) {
    // Four carried registers: the even (hi-word) and odd (lo-word) raw
    // states of each 4-lane chain, every one jumping 2*kLanes raw steps per
    // iteration. Carrying the odd states too (instead of deriving them with
    // an ordinary step) costs nothing — four jump mul64 against four
    // jump+step mul64 — and retires the step constants, so the whole loop
    // fits the 16 ymm registers without spilling.
    alignas(32) std::uint64_t even[kLanes], odd[kLanes];
    std::uint64_t cursor = s;
    for (std::size_t l = 0; l < kLanes; ++l) {
      even[l] = cursor;
      cursor = rng_detail::step(cursor, inc);
      odd[l] = cursor;
      cursor = rng_detail::step(cursor, inc);
    }
    __m256i s0e = _mm256_load_si256(reinterpret_cast<const __m256i*>(even));
    __m256i s1e =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(even + 4));
    __m256i s0o = _mm256_load_si256(reinterpret_cast<const __m256i*>(odd));
    __m256i s1o =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(odd + 4));
    const rng_detail::Jump jump =
        rng_detail::jump_coefficients(inc, 2 * kLanes);
    const __m256i jmult =
        _mm256_set1_epi64x(static_cast<long long>(jump.mult));
    const __m256i jmult_hi = _mm256_srli_epi64(jmult, 32);
    const __m256i jplus =
        _mm256_set1_epi64x(static_cast<long long>(jump.plus));
    // The full word (hi << 32 | lo) assembles for free — the hi rotation
    // lands its word in the high half via << (32 - rot), the lo rotation
    // leaves its word in the low half, and a blend splices them with no
    // masks and no extra shifts; >> 11 then yields the clean 53-bit draw,
    // where the compare against cutoff is exact (both sides < 2^53, so
    // signed cmpgt orders correctly).
    const __m256i c32 = _mm256_set1_epi64x(32);
    const __m256i vcut = _mm256_set1_epi64x(static_cast<long long>(cutoff));
    for (std::size_t it = 0; it < iterations; ++it) {
      const __m256i e_a = s0e;
      const __m256i o_a = s0o;
      const __m256i e_b = s1e;
      const __m256i o_b = s1o;
      s0e = _mm256_add_epi64(
          mul64c(e_a, _mm256_srli_epi64(e_a, 32), jmult, jmult_hi), jplus);
      s0o = _mm256_add_epi64(
          mul64c(o_a, _mm256_srli_epi64(o_a, 32), jmult, jmult_hi), jplus);
      s1e = _mm256_add_epi64(
          mul64c(e_b, _mm256_srli_epi64(e_b, 32), jmult, jmult_hi), jplus);
      s1o = _mm256_add_epi64(
          mul64c(o_b, _mm256_srli_epi64(o_b, 32), jmult, jmult_hi), jplus);
      // hi word rotated straight into the high half: for rot in [0, 31],
      // ((x | x << 32) << (32 - rot)) keeps rot32(x, rot) in bits 32..63.
      const __m256i hi_a = _mm256_sllv_epi64(
          xsh_doubled(e_a),
          _mm256_sub_epi64(c32, _mm256_srli_epi64(e_a, 59)));
      const __m256i lo_a = _mm256_srlv_epi64(xsh_doubled(o_a),
                                             _mm256_srli_epi64(o_a, 59));
      const __m256i hi_b = _mm256_sllv_epi64(
          xsh_doubled(e_b),
          _mm256_sub_epi64(c32, _mm256_srli_epi64(e_b, 59)));
      const __m256i lo_b = _mm256_srlv_epi64(xsh_doubled(o_b),
                                             _mm256_srli_epi64(o_b, 59));
      const __m256i bits_a = _mm256_srli_epi64(
          _mm256_blend_epi32(lo_a, hi_a, 0xAA), 11);
      const __m256i bits_b = _mm256_srli_epi64(
          _mm256_blend_epi32(lo_b, hi_b, 0xAA), 11);
      const int m_a = _mm256_movemask_pd(
          _mm256_castsi256_pd(_mm256_cmpgt_epi64(vcut, bits_a)));
      const int m_b = _mm256_movemask_pd(
          _mm256_castsi256_pd(_mm256_cmpgt_epi64(vcut, bits_b)));
      const std::uint64_t bytes =
          kMaskBytes[static_cast<std::size_t>(m_a | (m_b << 4))];
      std::memcpy(dst + it * kLanes, &bytes, sizeof(bytes));
    }
    s = static_cast<std::uint64_t>(_mm256_extract_epi64(s0e, 0));
  }
  for (std::size_t i = iterations * kLanes; i < n; ++i) {
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

double min_complement_avx2(const double* s, std::size_t n) {
  const __m256d ones = _mm256_set1_pd(1.0);
  const __m256d zeros = _mm256_setzero_pd();
  __m256d acc = ones;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d c = _mm256_sub_pd(ones, _mm256_loadu_pd(s + i));
    // max first: x86 min/max return the second operand on NaN, so this
    // sends NaN complements to 0 exactly like Probability::clamped.
    c = _mm256_max_pd(c, zeros);
    c = _mm256_min_pd(c, ones);
    acc = _mm256_min_pd(acc, c);
  }
  const __m128d fold2 =
      _mm_min_pd(_mm256_castpd256_pd128(acc), _mm256_extractf128_pd(acc, 1));
  const __m128d fold1 = _mm_min_sd(fold2, _mm_unpackhi_pd(fold2, fold2));
  double min_value = _mm_cvtsd_f64(fold1);
  for (; i < n; ++i) {
    const double c = 1.0 - s[i];
    const double clamped = std::isnan(c) ? 0.0 : std::clamp(c, 0.0, 1.0);
    min_value = std::min(min_value, clamped);
  }
  return min_value;
}

}  // namespace

const KernelTable kSimdTable = {
    fill_uniforms_avx2,  axpy_avx2,
    axpy_rows_avx2,      csr_axpy_avx2,
    less_than_avx2,      bernoulli_avx2,
    min_complement_avx2,
};

}  // namespace fcm::simd::detail

#endif  // FCM_SIMD_AVX2
