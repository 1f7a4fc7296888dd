// Differential tests for the Eq. 3 series kernel: the CSR multiply must be
// *bitwise* equal to the naive reference loop for every P whose terms stay
// finite, whatever its fill or sign. Also covers the CSR round-trip, the
// content hash, and the unchecked accessors the kernel relies on.
#include "graph/series.h"

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "graph/csr.h"
#include "graph/matrix.h"

namespace fcm::graph {
namespace {

// Random nonnegative influence-like matrix: exactly floor(fill · n²) nonzero
// entries at random off-diagonal positions, weights in (0.05, 0.9).
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
  // All-zero final rows: the CSR row loop sees empty trailing spans.
  for (const std::size_t n : {13u, 21u}) {
    for (const double fill : {0.1, 0.4}) {
      Matrix p = random_influence(n, fill, 17);
      for (std::size_t j = 0; j < n; ++j) {
        p.at(n - 1, j) = 0.0;
        p.at(n - 2, j) = 0.0;
      }
      expect_bitwise_equal(power_series_sum(p, {.max_order = 6}),
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

TEST(Matrix, ContentHashStableAndMutationSensitive) {
  const Matrix a = random_influence(9, 0.3, 7);
  Matrix b = random_influence(9, 0.3, 7);
  EXPECT_EQ(a.content_hash(), b.content_hash());
  EXPECT_EQ(a.content_hash(), a.content_hash());
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
  enum class Plant {
    kNone,
    kFull,       // the diagonal filled too: no zero entry at all
    kNegative,   // one negative entry
    kMixed,      // every other entry negated
    kSubnormal,  // one negative subnormal entry: some products are -0.0
  } plant;
};

class SeriesKernels : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeriesKernels, BitwiseEqualToReference) {
  // Sparse to full fills, sign changes and a subnormal entry: the zero
  // skips drop only products the reference adds as ±0.0.
  using Plant = KernelCase::Plant;
  const KernelCase cases[] = {
      {5, 0.08, Plant::kNone},    {5, 0.4, Plant::kNone},
      {48, 0.08, Plant::kNone},   {48, 0.08, Plant::kNegative},
      {48, 0.4, Plant::kNone},    {135, 0.4, Plant::kNone},
      {24, 1.0, Plant::kFull},    {40, 0.3, Plant::kMixed},
      {32, 0.2, Plant::kSubnormal},
  };
  for (const KernelCase& c : cases) {
    Matrix p = random_influence(c.n, c.fill, GetParam());
    switch (c.plant) {
      case Plant::kNone:
        break;
      case Plant::kFull:
        for (std::size_t i = 0; i < c.n; ++i) p.at(i, i) = 0.25;
        break;
      case Plant::kNegative:
        p.at(1, 3) = -0.5;
        break;
      case Plant::kMixed:
        for (std::size_t i = 0; i < c.n * c.n; i += 2) p.data()[i] *= -1.0;
        break;
      case Plant::kSubnormal:
        p.at(2, 5) = -4.9e-324;
        break;
    }
    expect_bitwise_equal(power_series_sum(p, {.max_order = 6}),
                         power_series_sum_reference(p, 6));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeriesKernels,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(SeriesKernels, EpsilonTruncationMatchesReference) {
  for (const double fill : {0.08, 0.4}) {
    // Weights scaled so row sums sit near 0.1: terms shrink by ~10x per
    // order and every epsilon below truncates the series.
    Matrix p = random_influence(48, fill, 42);
    for (std::size_t i = 0; i < 48 * 48; ++i) {
      p.data()[i] *= 0.2 / (48.0 * fill);
    }
    for (const double epsilon : {1e-3, 1e-6, 1e-9}) {
      expect_bitwise_equal(
          power_series_sum(p, {.max_order = 12, .epsilon = epsilon}),
          power_series_sum_reference(p, 12, epsilon));
    }
  }
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
