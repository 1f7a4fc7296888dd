#include "core/separation.h"

#include <gtest/gtest.h>

#include <limits>

namespace fcm::core {
namespace {

TEST(Separation, DirectOnlyIsComplement) {
  // Two members, one edge: separation = 1 - influence.
  graph::Matrix p(2);
  p.at(0, 1) = 0.3;
  const SeparationAnalysis analysis(p, {.max_order = 1, .epsilon = 0.0});
  EXPECT_NEAR(analysis.separation(0, 1).value(), 0.7, 1e-12);
  EXPECT_NEAR(analysis.separation(1, 0).value(), 1.0, 1e-12);
}

TEST(Separation, TransitiveTermLowersSeparation) {
  // 0 -> 1 -> 2 with no direct 0 -> 2 edge: separation(0,2) must still be
  // below 1 because of the two-hop chain P_01 * P_12 (Eq. 3).
  graph::Matrix p(3);
  p.at(0, 1) = 0.5;
  p.at(1, 2) = 0.4;
  const SeparationAnalysis analysis(p);
  EXPECT_NEAR(analysis.separation(0, 2).value(), 1.0 - 0.2, 1e-9);
}

TEST(Separation, HigherOrderAddsChains) {
  // 0->1->2->3: the three-hop chain appears at order 3.
  graph::Matrix p(4);
  p.at(0, 1) = 0.5;
  p.at(1, 2) = 0.5;
  p.at(2, 3) = 0.5;
  const SeparationAnalysis first_order(p, {.max_order = 1, .epsilon = 0.0});
  const SeparationAnalysis third_order(p, {.max_order = 3, .epsilon = 0.0});
  EXPECT_NEAR(first_order.separation(0, 3).value(), 1.0, 1e-12);
  EXPECT_NEAR(third_order.separation(0, 3).value(), 1.0 - 0.125, 1e-12);
}

TEST(Separation, DiagonalIsZeroByConvention) {
  graph::Matrix p(2);
  p.at(0, 1) = 0.5;
  const SeparationAnalysis analysis(p);
  EXPECT_DOUBLE_EQ(analysis.separation(0, 0).value(), 0.0);
}

TEST(Separation, ClampsAtZeroForStrongCoupling) {
  // A dense high-influence clique: the series sum exceeds 1; separation
  // clamps to 0 rather than going negative.
  graph::Matrix p(3);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      if (i != j) p.at(i, j) = 0.9;
    }
  }
  const SeparationAnalysis analysis(p);
  EXPECT_DOUBLE_EQ(analysis.separation(0, 1).value(), 0.0);
}

TEST(Separation, ReducingOtherInfluencesRaisesSeparation) {
  // The paper's observation: "it is also possible to increase separation by
  // reducing the influence between other FCMs through which the two
  // interact."
  graph::Matrix strong(3);
  strong.at(0, 1) = 0.6;
  strong.at(1, 2) = 0.6;  // the intermediary
  graph::Matrix weak = strong;
  weak.at(1, 2) = 0.1;  // weaken 1->2 only; 0->2 has no direct edge
  const SeparationAnalysis s(strong);
  const SeparationAnalysis w(weak);
  EXPECT_LT(s.separation(0, 2).value(), w.separation(0, 2).value());
}

TEST(Separation, InteractionAccessorExposesRawSeries) {
  graph::Matrix p(2);
  p.at(0, 1) = 0.25;
  const SeparationAnalysis analysis(p);
  EXPECT_NEAR(analysis.interaction(0, 1), 0.25, 1e-12);
  EXPECT_DOUBLE_EQ(analysis.interaction(1, 0), 0.0);
}

TEST(Separation, MinSeparationFindsWeakestBoundary) {
  graph::Matrix p(3);
  p.at(0, 1) = 0.9;
  p.at(1, 2) = 0.1;
  const SeparationAnalysis analysis(p);
  EXPECT_NEAR(analysis.min_separation().value(),
              analysis.separation(0, 1).value(), 1e-12);
}

TEST(Separation, NaNSeriesEntryGivesZeroMinSeparation) {
  // The min fold follows Probability::clamped: a NaN series entry maps to
  // 0 rather than vanishing from the min (every comparison with NaN is
  // false), so the weakest boundary reads 0 wherever it sits in the row.
  for (const std::size_t column : {std::size_t{1}, std::size_t{3}}) {
    graph::Matrix p(4);
    p.at(0, column) = std::numeric_limits<double>::quiet_NaN();
    p.at(2, 1) = 0.25;
    const SeparationAnalysis analysis(p, {.max_order = 1, .epsilon = 0.0});
    EXPECT_EQ(analysis.min_separation().value(), 0.0) << "column " << column;
    EXPECT_EQ(analysis.separation(0, column).value(), 0.0);
  }
}

TEST(Separation, FromInfluenceModel) {
  InfluenceModel model;
  const FcmId a(0), b(1);
  model.add_member(a, "A");
  model.add_member(b, "B");
  model.set_direct(a, b, Probability(0.4));
  const SeparationAnalysis analysis(model);
  EXPECT_NEAR(analysis.separation(0, 1).value(), 0.6, 1e-12);
}

class SeparationOrderSweep : public ::testing::TestWithParam<int> {};

TEST_P(SeparationOrderSweep, SeparationMonotoneNonIncreasingInOrder) {
  // Adding series terms can only increase interaction, so separation is
  // non-increasing in the truncation order.
  graph::Matrix p(4);
  p.at(0, 1) = 0.3;
  p.at(1, 2) = 0.4;
  p.at(2, 3) = 0.5;
  p.at(3, 0) = 0.2;
  p.at(1, 3) = 0.1;
  const int order = GetParam();
  const SeparationAnalysis lower(p, {.max_order = order, .epsilon = 0.0});
  const SeparationAnalysis higher(
      p, {.max_order = order + 1, .epsilon = 0.0});
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      if (i == j) continue;
      EXPECT_GE(lower.separation(i, j).value() + 1e-12,
                higher.separation(i, j).value());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, SeparationOrderSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace fcm::core
