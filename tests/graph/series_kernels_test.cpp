// Differential tests for the Eq. 3 series kernels: the blocked dense kernel,
// the CSR sparse kernel, and the threaded row-pool must all be *bitwise*
// equal to the naive reference loop, for any thread count. Each kernel is
// reached through its input — P's fill ratio and sign select it — and the
// series.kernel.* obs counters confirm which one ran. Also covers the CSR
// round-trip, the cached content hash, and the unchecked accessors the
// kernels rely on.
#include "graph/series.h"

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "graph/csr.h"
#include "graph/matrix.h"
#include "obs/obs.h"

namespace fcm::graph {
namespace {

// Random nonnegative influence-like matrix: exactly floor(fill · n²) nonzero
// entries at random off-diagonal positions, weights in (0.05, 0.9). The
// exact count pins the fill ratio, and with it the kernel the series
// selects.
Matrix random_influence(std::size_t n, double fill, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::size_t> slots;
  for (std::size_t i = 0; i < n * n; ++i) {
    if (i / n != i % n) slots.push_back(i);
  }
  rng.shuffle(std::span<std::size_t>(slots));
  const auto count =
      static_cast<std::size_t>(fill * static_cast<double>(n * n));
  Matrix p(n);
  for (std::size_t e = 0; e < count && e < slots.size(); ++e) {
    p.data()[slots[e]] = rng.uniform(0.05, 0.9);
  }
  return p;
}

// Bitwise comparison: the determinism claim is about bit patterns, not
// tolerance. (memcmp also distinguishes -0.0 from 0.0, which == would not.)
void expect_bitwise_equal(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.size(), b.size());
  if (a.size() == 0) return;
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        a.size() * a.size() * sizeof(double)),
            0);
}

enum class Kernel { kDense, kSparse };

// power_series_sum(p, options), checking through the series.kernel.* obs
// counters that P selected `expected`. With -DFCM_OBS=OFF the counters are
// compiled out and only the evaluation remains.
Matrix series_via(Kernel expected, const Matrix& p,
                  const SeriesOptions& options) {
#if FCM_OBS_ENABLED
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::MetricsRegistry::global().reset();
  Matrix result = power_series_sum(p, options);
  const auto counters = obs::MetricsRegistry::global().snapshot().counters;
  obs::MetricsRegistry::global().reset();
  obs::set_enabled(was_enabled);
  std::string ran;
  for (const char* kernel : {"dense", "sparse"}) {
    if (counters.contains(std::string("series.kernel.") + kernel)) {
      ran += kernel;
    }
  }
  EXPECT_EQ(ran, expected == Kernel::kSparse ? "sparse" : "dense")
      << "n=" << p.size() << " fill=" << p.fill_ratio();
  return result;
#else
  (void)expected;
  return power_series_sum(p, options);
#endif
}

TEST(CsrMatrix, RoundTripsRandomMatrices) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Matrix dense = random_influence(17, 0.2, seed);
    const CsrMatrix csr(dense);
    expect_bitwise_equal(csr.to_dense(), dense);
    // Columns ascend within each row.
    for (std::size_t r = 0; r < csr.size(); ++r) {
      for (std::size_t e = csr.row_begin(r) + 1; e < csr.row_end(r); ++e) {
        EXPECT_LT(csr.cols()[e - 1], csr.cols()[e]);
      }
    }
  }
}

TEST(CsrMatrix, DropsExactZerosOnly) {
  Matrix m(3);
  m.at(0, 1) = 0.5;
  m.at(2, 0) = 1e-300;  // tiny but nonzero: must be kept
  const CsrMatrix csr(m);
  EXPECT_EQ(csr.nonzeros(), 2u);
  expect_bitwise_equal(csr.to_dense(), m);
}

TEST(SeriesKernels, EmptyTrailingRowsMatchReference) {
  // All-zero final rows: the CSR row loop sees empty trailing spans and the
  // dense gather collects zero coefficients for those output rows. Sizes
  // stay large enough that the zeroed rows cannot pull the 0.4 fill below
  // the sparse threshold.
  for (const std::size_t n : {13u, 21u}) {
    for (const auto& [fill, kernel] :
         {std::pair{0.1, Kernel::kSparse}, std::pair{0.4, Kernel::kDense}}) {
      Matrix p = random_influence(n, fill, 17);
      for (std::size_t j = 0; j < n; ++j) {
        p.at(n - 1, j) = 0.0;
        p.at(n - 2, j) = 0.0;
      }
      expect_bitwise_equal(series_via(kernel, p, {.max_order = 6}),
                           power_series_sum_reference(p, 6));
    }
  }
}

TEST(Matrix, UncheckedAccessMatchesChecked) {
  Matrix m(4);
  m(1, 2) = 0.25;
  m.data()[3 * 4 + 0] = 0.75;
  EXPECT_DOUBLE_EQ(m.at(1, 2), 0.25);
  EXPECT_DOUBLE_EQ(m.at(3, 0), 0.75);
  const Matrix& cm = m;
  EXPECT_DOUBLE_EQ(cm(1, 2), 0.25);
  EXPECT_DOUBLE_EQ(cm.data()[3 * 4 + 0], 0.75);
}

TEST(Matrix, FillRatioCountsNonzeros) {
  Matrix m(4);
  EXPECT_DOUBLE_EQ(m.fill_ratio(), 0.0);
  m.at(0, 1) = 0.5;
  m.at(2, 3) = 0.1;
  EXPECT_DOUBLE_EQ(m.fill_ratio(), 2.0 / 16.0);
  EXPECT_DOUBLE_EQ(Matrix(0).fill_ratio(), 1.0);
}

TEST(Matrix, ContentHashStableAndMutationSensitive) {
  const Matrix a = random_influence(9, 0.3, 7);
  Matrix b = random_influence(9, 0.3, 7);
  EXPECT_EQ(a.content_hash(), b.content_hash());
  EXPECT_EQ(a.content_hash(), a.content_hash());  // cached path
  b.at(4, 5) += 0.125;
  EXPECT_NE(a.content_hash(), b.content_hash());
  // Dimension participates: an empty 2x2 and 3x3 differ.
  EXPECT_NE(Matrix(2).content_hash(), Matrix(3).content_hash());
}

TEST(Matrix, ContentHashInvalidatedByUncheckedWrites) {
  Matrix m(3);
  const std::uint64_t zero_hash = m.content_hash();
  m(0, 1) = 0.5;
  EXPECT_NE(m.content_hash(), zero_hash);
  const std::uint64_t after_paren = m.content_hash();
  m.data()[2] = 0.25;
  EXPECT_NE(m.content_hash(), after_paren);
}

struct KernelCase {
  std::size_t n;
  double fill;
  bool negative;  // plant one negative entry, which forces the dense kernel
  Kernel kernel;
};

class SeriesKernels : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeriesKernels, BitwiseEqualToReferenceAcrossThreadCounts) {
  // n = 48 splits into three 16-row tasks, so threads matter; n = 135 adds
  // a ragged column tile and a ragged last row task.
  const KernelCase cases[] = {
      {5, 0.08, false, Kernel::kSparse},  {5, 0.4, false, Kernel::kDense},
      {48, 0.08, false, Kernel::kSparse}, {48, 0.08, true, Kernel::kDense},
      {48, 0.4, false, Kernel::kDense},   {135, 0.4, false, Kernel::kDense},
  };
  for (const KernelCase& c : cases) {
    Matrix p = random_influence(c.n, c.fill, GetParam());
    if (c.negative) p.at(1, 3) = -0.5;
    const Matrix reference = power_series_sum_reference(p, 6);
    for (const std::uint32_t threads : {1u, 4u, 8u}) {
      expect_bitwise_equal(
          series_via(c.kernel, p, {.max_order = 6, .threads = threads}),
          reference);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeriesKernels,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(SeriesKernels, EpsilonTruncationMatchesReference) {
  for (const auto& [fill, kernel] :
       {std::pair{0.08, Kernel::kSparse}, std::pair{0.4, Kernel::kDense}}) {
    // Weights scaled so row sums sit near 0.1: terms shrink by ~10x per
    // order and every epsilon below truncates the series.
    Matrix p = random_influence(48, fill, 42);
    for (std::size_t i = 0; i < 48 * 48; ++i) {
      p.data()[i] *= 0.2 / (48.0 * fill);
    }
    for (const double epsilon : {1e-3, 1e-6, 1e-9}) {
      expect_bitwise_equal(
          series_via(kernel, p,
                     {.max_order = 12, .epsilon = epsilon, .threads = 4}),
          power_series_sum_reference(p, 12, epsilon));
    }
  }
}

TEST(SeriesKernels, DenseKernelHandlesNegativeEntries) {
  // A matrix with a negative entry must never take the sparse kernel (the
  // zero-skip is only an additive no-op for nonnegative data), however
  // sparse it is; the dense path must still match the reference bitwise.
  Matrix p = random_influence(11, 0.1, 3);
  p.at(2, 7) = -0.5;
  expect_bitwise_equal(series_via(Kernel::kDense, p, {.max_order = 5}),
                       power_series_sum_reference(p, 5));
}

TEST(SeriesKernels, SizeRelaxedFillThresholdStartsAt512) {
  // A quarter-full matrix is too dense for the sparse kernel below 512
  // rows and sparse enough for it from 512 rows on.
  for (const auto& [n, kernel] :
       {std::pair{std::size_t{511}, Kernel::kDense},
        std::pair{std::size_t{512}, Kernel::kSparse}}) {
    const Matrix p = random_influence(n, 0.25, 5);
    expect_bitwise_equal(series_via(kernel, p, {.max_order = 2}),
                         power_series_sum_reference(p, 2));
  }
}

TEST(SeriesKernels, HardwareConcurrencyThreadsValue) {
  const Matrix p = random_influence(48, 0.2, 11);
  SeriesOptions options;
  options.threads = 0;  // hardware concurrency
  expect_bitwise_equal(power_series_sum(p, options),
                       power_series_sum_reference(p, options.max_order));
}

TEST(SeriesKernels, TrivialSizes) {
  SeriesOptions options;
  expect_bitwise_equal(power_series_sum(Matrix(0), options), Matrix(0));
  Matrix one(1);
  one.at(0, 0) = 0.5;
  expect_bitwise_equal(power_series_sum(one, options),
                       power_series_sum_reference(one, options.max_order));
}

TEST(SeriesKernels, RejectsZeroOrder) {
  SeriesOptions options;
  options.max_order = 0;
  EXPECT_THROW(power_series_sum(Matrix(2), options), InvalidArgument);
}

}  // namespace
}  // namespace fcm::graph
