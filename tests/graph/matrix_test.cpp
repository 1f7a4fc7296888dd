#include "graph/matrix.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "graph/series.h"

namespace fcm::graph {
namespace {

TEST(Matrix, ZeroConstructed) {
  const Matrix m(3);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(m.at(i, j), 0.0);
  }
}

TEST(Matrix, Identity) {
  const Matrix id = Matrix::identity(3);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(id.at(i, j), i == j ? 1.0 : 0.0);
    }
  }
}

TEST(Matrix, MultiplyByIdentity) {
  Matrix m(2);
  m.at(0, 0) = 1.0;
  m.at(0, 1) = 2.0;
  m.at(1, 0) = 3.0;
  m.at(1, 1) = 4.0;
  const Matrix p = m * Matrix::identity(2);
  EXPECT_DOUBLE_EQ(p.at(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(p.at(1, 0), 3.0);
}

TEST(Matrix, MultiplyKnownProduct) {
  Matrix a(2), b(2);
  a.at(0, 0) = 1.0;
  a.at(0, 1) = 2.0;
  a.at(1, 0) = 3.0;
  a.at(1, 1) = 4.0;
  b.at(0, 0) = 5.0;
  b.at(0, 1) = 6.0;
  b.at(1, 0) = 7.0;
  b.at(1, 1) = 8.0;
  const Matrix p = a * b;
  EXPECT_DOUBLE_EQ(p.at(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(p.at(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(p.at(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(p.at(1, 1), 50.0);
}

TEST(Matrix, AdditionAndMaxAbs) {
  Matrix a(2);
  a.at(0, 1) = -3.0;
  Matrix b(2);
  b.at(0, 1) = 1.0;
  b.at(1, 0) = 2.0;
  const Matrix s = a + b;
  EXPECT_DOUBLE_EQ(s.at(0, 1), -2.0);
  EXPECT_DOUBLE_EQ(s.at(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(a.max_abs(), 3.0);
}

TEST(Matrix, SizeMismatchThrows) {
  const Matrix a(2), b(3);
  EXPECT_THROW((void)(a * b), InvalidArgument);
  EXPECT_THROW((void)(a + b), InvalidArgument);
}

TEST(PowerSeries, FirstOrderOnly) {
  Matrix p(2);
  p.at(0, 1) = 0.5;
  const Matrix s = power_series_sum(p, {.max_order = 1});
  EXPECT_DOUBLE_EQ(s.at(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(s.at(0, 0), 0.0);
}

TEST(PowerSeries, MatchesGeometricClosedForm) {
  // Scalar case: p + p^2 + ... + p^k for a 1x1 matrix.
  Matrix p(1);
  p.at(0, 0) = 0.5;
  const Matrix s = power_series_sum(p, {.max_order = 10});
  // sum_{i=1..10} 0.5^i = 1 - 0.5^10 (geometric).
  EXPECT_NEAR(s.at(0, 0), 1.0 - std::pow(0.5, 10), 1e-12);
}

TEST(PowerSeries, TransitiveTwoHopTerm) {
  // Eq. 3 shape: P_02 = 0 directly but P_01 * P_12 through node 1.
  Matrix p(3);
  p.at(0, 1) = 0.5;
  p.at(1, 2) = 0.4;
  const Matrix s = power_series_sum(p, {.max_order = 3});
  EXPECT_NEAR(s.at(0, 2), 0.2, 1e-12);
  EXPECT_NEAR(s.at(0, 1), 0.5, 1e-12);
}

TEST(PowerSeries, EpsilonTruncates) {
  Matrix p(2);
  p.at(0, 1) = 1e-4;
  p.at(1, 0) = 1e-4;
  // Second-order term has magnitude 1e-8 < epsilon -> dropped.
  const Matrix s =
      power_series_sum(p, {.max_order = 10, .epsilon = 1e-6});
  EXPECT_DOUBLE_EQ(s.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(s.at(0, 1), 1e-4);
}

TEST(PowerSeries, RejectsZeroOrder) {
  EXPECT_THROW(power_series_sum(Matrix(2), {.max_order = 0}), InvalidArgument);
}

}  // namespace
}  // namespace fcm::graph
