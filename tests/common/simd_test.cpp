// Differential battery for the batched kernel backends: every backend must
// be bit-identical to kScalarRef on every kernel, including remainder tails
// (sizes that are not multiples of any lane width) and the IEEE edge cases
// the Probability::clamped contract pins down (denormals, ±inf, NaN).
#include "common/simd.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/probability.h"
#include "common/rng.h"

namespace fcm::simd {
namespace {

// Remainder coverage: 0 and 1 (degenerate), primes and odd sizes straddling
// the 4/8-lane widths, and a buffer-sized batch.
const std::size_t kSizes[] = {0, 1, 3, 5, 7, 8, 17, 63, 64, 65, 256, 1000};

std::vector<Backend> all_backends() {
  return {Backend::kScalarRef, Backend::kSimd};
}

// memcmp over n elements; an empty range is equal without handing memcmp
// the null data() of an empty vector.
template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b,
               std::size_t n) {
  return n == 0 || std::memcmp(a.data(), b.data(), n * sizeof(T)) == 0;
}

// The sequential-axpy oracle: the scalar reference's row fold, one row at
// a time (m = 1).
void scalar_axpy(double* out, const double* p, double a, std::size_t n) {
  kernels(Backend::kScalarRef).axpy_rows(out, &p, &a, 1, n);
}

std::vector<double> random_values(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values(n);
  for (double& v : values) v = rng.uniform();
  return values;
}

// Values exercising the clamp contract: denormals, ±inf, NaN, negatives,
// and magnitudes beyond [0,1] on both sides.
std::vector<double> edge_values() {
  const double denorm = std::numeric_limits<double>::denorm_min();
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  return {0.0,    1.0,   0.5,  denorm, -denorm, 1.0 - 1e-16, 1.0 + 1e-15,
          -0.25,  2.5,   inf,  -inf,   nan,     1e-308,      -1e-308,
          1e300,  -1e300};
}

TEST(SimdDispatchTest, ParseBackendNames) {
  EXPECT_EQ(parse_backend("scalar"), Backend::kScalarRef);
  EXPECT_EQ(parse_backend("simd"), Backend::kSimd);
  EXPECT_FALSE(parse_backend("auto").has_value());
  EXPECT_FALSE(parse_backend("").has_value());
  EXPECT_FALSE(parse_backend("avx2").has_value());
  EXPECT_FALSE(parse_backend("SIMD").has_value());
}

TEST(SimdDispatchTest, BackendNamesRoundTrip) {
  for (const Backend b : all_backends()) {
    EXPECT_EQ(parse_backend(backend_name(b)), b);
  }
}

TEST(SimdDispatchTest, SetBackendDegradesGracefully) {
  const Backend before = active_backend();
  set_backend(Backend::kSimd);
  // The real kSimd backend, or the scalar reference when this build or CPU
  // lacks it.
  EXPECT_EQ(active_backend(),
            simd_available() ? Backend::kSimd : Backend::kScalarRef);
  set_backend(Backend::kScalarRef);
  EXPECT_EQ(active_backend(), Backend::kScalarRef);
  set_backend(before);
}

TEST(SimdKernelTest, FillUniformsMatchesRngAcrossBackends) {
  // The kernel contract: uniform i is built from raw draws 2i and 2i+1 of
  // the PCG stream, exactly like Rng::uniform().
  for (const std::size_t n : kSizes) {
    Rng reference(12345, 7);
    std::vector<double> expected(n);
    for (double& v : expected) v = reference.uniform();
    for (const Backend b : all_backends()) {
      // Rebuild the raw state the same way Rng's constructor does.
      std::uint64_t state = 0;
      const std::uint64_t inc = (7ULL << 1u) | 1u;
      state = rng_detail::step(state, inc);
      state += 12345;
      state = rng_detail::step(state, inc);
      std::vector<double> got(n, -1.0);
      kernels(b).fill_uniforms(&state, inc, got.data(), n);
      ASSERT_TRUE(same_bits(expected, got, n))
          << "backend " << backend_name(b) << " n=" << n;
      // The state must have advanced exactly 2n raw steps.
      Rng stepped(12345, 7);
      stepped.advance(2 * n);
      std::uint64_t tail_expected[2];
      tail_expected[0] = stepped();
      tail_expected[1] = stepped();
      EXPECT_EQ(tail_expected[0], rng_detail::output(state))
          << "backend " << backend_name(b) << " n=" << n;
      state = rng_detail::step(state, inc);
      EXPECT_EQ(tail_expected[1], rng_detail::output(state));
    }
  }
}

TEST(SimdKernelTest, BernoulliMatchesFillPlusLessThan) {
  // The fused lottery must produce the exact flags of fill_uniforms followed
  // by u < t and advance the state identically, for every backend and
  // for thresholds at the edges of the integer-compare rewrite (t * 2^53
  // integral, denormal t, t outside [0, 1], t = 2^-53).
  const double denorm = std::numeric_limits<double>::denorm_min();
  const double thresholds[] = {0.0,  1.0,    0.5,         0.1, 0.25,
                               2.5,  -1.0,   denorm,      0x1.0p-53,
                               1.0 - 1e-16,  0x1.fp-3};
  for (const std::size_t n : kSizes) {
    for (const double t : thresholds) {
      // Rebuild the raw state the way Rng's constructor does.
      const std::uint64_t inc = (11ULL << 1u) | 1u;
      const auto fresh_state = [&] {
        std::uint64_t s = 0;
        s = rng_detail::step(s, inc);
        s += 777;
        s = rng_detail::step(s, inc);
        return s;
      };
      std::uint64_t ref_state = fresh_state();
      std::vector<double> uniforms(n);
      std::vector<std::uint8_t> expected(n, 2);
      kernels(Backend::kScalarRef)
          .fill_uniforms(&ref_state, inc, uniforms.data(), n);
      for (std::size_t i = 0; i < n; ++i) expected[i] = uniforms[i] < t;
      for (const Backend b : all_backends()) {
        std::uint64_t state = fresh_state();
        std::vector<std::uint8_t> got(n, 2);
        kernels(b).bernoulli(&state, inc, t, got.data(), n);
        ASSERT_TRUE(same_bits(expected, got, n))
            << "backend " << backend_name(b) << " n=" << n << " t=" << t;
        EXPECT_EQ(ref_state, state)
            << "backend " << backend_name(b) << " n=" << n << " t=" << t;
      }
    }
  }
}

TEST(SimdKernelTest, AxpyRowsMatchesSequentialAxpy) {
  // The fused fold must be bit-identical to m sequential scalar axpy sweeps
  // for every (m, n) shape, including the 4-row-chunk remainders (m % 4) and
  // the vector-width remainders (n % 4/8).
  for (const std::size_t n : kSizes) {
    for (const std::size_t m : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                                std::size_t{4}, std::size_t{5}, std::size_t{8},
                                std::size_t{9}}) {
      std::vector<std::vector<double>> storage;
      std::vector<const double*> rows;
      std::vector<double> coeffs;
      for (std::size_t r = 0; r < m; ++r) {
        storage.push_back(random_values(n, 200 + r));
        coeffs.push_back(0.05 + 0.31 * static_cast<double>(r));
      }
      for (const auto& row : storage) rows.push_back(row.data());
      const std::vector<double> base = random_values(n, 300);
      std::vector<double> expected = base;
      for (std::size_t r = 0; r < m; ++r) {
        scalar_axpy(expected.data(), rows[r], coeffs[r], n);
      }
      for (const Backend b : all_backends()) {
        std::vector<double> out = base;
        kernels(b).axpy_rows(out.data(), rows.data(), coeffs.data(), m, n);
        ASSERT_TRUE(same_bits(expected, out, n))
            << "backend " << backend_name(b) << " m=" << m << " n=" << n;
      }
    }
  }
}

TEST(SimdKernelTest, AxpyRowsEdgeValuesBitwiseParity) {
  // Rows of IEEE edge values (±inf, NaN, denormals) with edge coefficients:
  // the per-element ascending-row accumulation chain must round identically,
  // NaN payload bits included.
  const std::vector<double> edges = edge_values();
  const std::size_t n = edges.size();
  std::vector<std::vector<double>> storage(5, edges);
  storage[1].assign(n, std::numeric_limits<double>::denorm_min());
  storage[3].assign(n, 1e300);
  std::vector<const double*> rows;
  for (const auto& row : storage) rows.push_back(row.data());
  const std::vector<double> coeffs = {
      0.37, 1e300, -2.5, std::numeric_limits<double>::infinity(), 1e-300};
  std::vector<double> expected(n, 0.125);
  for (std::size_t r = 0; r < storage.size(); ++r) {
    scalar_axpy(expected.data(), rows[r], coeffs[r], n);
  }
  for (const Backend b : all_backends()) {
    std::vector<double> out(n, 0.125);
    kernels(b).axpy_rows(out.data(), rows.data(), coeffs.data(),
                         storage.size(), n);
    ASSERT_EQ(0, std::memcmp(expected.data(), out.data(), n * sizeof(double)))
        << "backend " << backend_name(b);
  }
}

TEST(SimdKernelTest, CsrAxpyBitwiseParityWithGaps) {
  // Scattered columns with gaps (mimicking a sparse CSR row) and a
  // non-multiple-of-lane-width entry count.
  for (const std::size_t n : kSizes) {
    std::vector<std::uint32_t> cols(n);
    for (std::size_t e = 0; e < n; ++e) {
      cols[e] = static_cast<std::uint32_t>(3 * e + (e % 2));  // ascending
    }
    const std::size_t width = n == 0 ? 1 : 3 * n + 2;
    const std::vector<double> vals = random_values(n, 42);
    std::vector<double> expected(width, 0.5);
    kernels(Backend::kScalarRef)
        .csr_axpy(expected.data(), cols.data(), vals.data(), 1.75, n);
    for (const Backend b : all_backends()) {
      std::vector<double> out(width, 0.5);
      kernels(b).csr_axpy(out.data(), cols.data(), vals.data(), 1.75, n);
      ASSERT_EQ(0, std::memcmp(expected.data(), out.data(),
                               width * sizeof(double)))
          << "backend " << backend_name(b) << " n=" << n;
    }
  }
}

TEST(SimdKernelTest, MinComplementMatchesClampedFold) {
  // Oracle: the original separation loop — min over Probability::clamped
  // complements.
  for (const std::size_t n : kSizes) {
    std::vector<double> s = random_values(n, 777);
    if (n >= 8) {
      const std::vector<double> edges = edge_values();
      for (std::size_t i = 0; i < edges.size() && i < n; ++i) {
        s[i] = edges[i];
      }
    }
    double oracle = 1.0;
    for (const double v : s) {
      oracle = std::min(oracle, Probability::clamped(1.0 - v).value());
    }
    for (const Backend b : all_backends()) {
      const double got = kernels(b).min_complement(s.data(), n);
      std::uint64_t got_bits, oracle_bits;
      std::memcpy(&got_bits, &got, sizeof(got));
      std::memcpy(&oracle_bits, &oracle, sizeof(oracle));
      ASSERT_EQ(oracle_bits, got_bits)
          << "backend " << backend_name(b) << " n=" << n;
    }
  }
}

TEST(SimdKernelTest, MinComplementEmptyIsOne) {
  for (const Backend b : all_backends()) {
    EXPECT_EQ(1.0, kernels(b).min_complement(nullptr, 0));
  }
}

TEST(SimdKernelTest, MinComplementNaNClampsToZero) {
  // One NaN interaction forces the minimum to 0 (clamped contract), on
  // every backend, wherever the NaN lands relative to the lane width.
  for (std::size_t position : {std::size_t{0}, std::size_t{3},
                               std::size_t{6}}) {
    std::vector<double> s(7, 0.25);
    s[position] = std::numeric_limits<double>::quiet_NaN();
    for (const Backend b : all_backends()) {
      EXPECT_EQ(0.0, kernels(b).min_complement(s.data(), s.size()))
          << "backend " << backend_name(b) << " position=" << position;
    }
  }
}

TEST(SimdKernelTest, DenormalInputsBitwiseParity) {
  // Denormal arithmetic must not diverge between the scalar reference and
  // the vector units (no FTZ/DAZ in any backend).
  const double denorm = std::numeric_limits<double>::denorm_min();
  std::vector<double> tiny(9, denorm);
  tiny[4] = 4.9e-324;
  std::vector<double> expected(9, 0.0);
  scalar_axpy(expected.data(), tiny.data(), denorm, tiny.size());
  const double* rows[] = {tiny.data()};
  for (const Backend b : all_backends()) {
    std::vector<double> out(9, 0.0);
    kernels(b).axpy_rows(out.data(), rows, &denorm, 1, tiny.size());
    ASSERT_EQ(0, std::memcmp(expected.data(), out.data(),
                             out.size() * sizeof(double)))
        << "backend " << backend_name(b);
  }
}

}  // namespace
}  // namespace fcm::simd
