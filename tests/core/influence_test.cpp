#include "core/influence.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/error.h"

namespace fcm::core {
namespace {

InfluenceFactor make_factor(FactorKind kind, double p1, double p2,
                            double p3) {
  InfluenceFactor f;
  f.kind = kind;
  f.occurrence = Probability(p1);
  f.transmission = Probability(p2);
  f.effect = Probability(p3);
  return f;
}

TEST(InfluenceFactor, EquationOneProduct) {
  const InfluenceFactor f =
      make_factor(FactorKind::kSharedMemory, 0.5, 0.4, 0.25);
  EXPECT_NEAR(f.probability().value(), 0.05, 1e-12);
}

TEST(InfluenceFactor, IsolationReducesTransmission) {
  const InfluenceFactor f =
      make_factor(FactorKind::kSharedMemory, 0.5, 0.4, 0.25);
  IsolationConfig config;
  config.enable(IsolationTechnique::kMemorySeparation, 0.1);
  EXPECT_NEAR(f.probability(config).value(), 0.005, 1e-12);
  // An unrelated technique must not change the value.
  IsolationConfig other;
  other.enable(IsolationTechnique::kParameterChecking, 0.0);
  EXPECT_NEAR(f.probability(other).value(), 0.05, 1e-12);
}

TEST(Mitigation, EveryNamedFactorHasATechnique) {
  EXPECT_EQ(mitigation_for(FactorKind::kParameterPassing),
            IsolationTechnique::kParameterChecking);
  EXPECT_EQ(mitigation_for(FactorKind::kGlobalVariables),
            IsolationTechnique::kInformationHiding);
  EXPECT_EQ(mitigation_for(FactorKind::kSharedMemory),
            IsolationTechnique::kMemorySeparation);
  EXPECT_EQ(mitigation_for(FactorKind::kMessagePassing),
            IsolationTechnique::kMessageChecking);
  EXPECT_EQ(mitigation_for(FactorKind::kTiming),
            IsolationTechnique::kPreemptiveScheduling);
  EXPECT_EQ(mitigation_for(FactorKind::kResourceContention),
            IsolationTechnique::kResourceQuotas);
  EXPECT_FALSE(mitigation_for(FactorKind::kOther).has_value());
}

class InfluenceModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = FcmId(0);
    b_ = FcmId(1);
    c_ = FcmId(2);
    model_.add_member(a_, "A");
    model_.add_member(b_, "B");
    model_.add_member(c_, "C");
  }

  InfluenceModel model_;
  FcmId a_, b_, c_;
};

TEST_F(InfluenceModelTest, NoFactorsMeansZeroInfluence) {
  EXPECT_EQ(model_.influence(a_, b_), Probability::zero());
}

TEST_F(InfluenceModelTest, EquationTwoCombinesFactors) {
  model_.add_factor(a_, b_,
                    make_factor(FactorKind::kSharedMemory, 1.0, 0.5, 1.0));
  model_.add_factor(a_, b_,
                    make_factor(FactorKind::kMessagePassing, 1.0, 0.2, 1.0));
  // 1 - (1-0.5)(1-0.2) = 0.6
  EXPECT_NEAR(model_.influence(a_, b_).value(), 0.6, 1e-12);
}

TEST_F(InfluenceModelTest, InfluenceIsDirectional) {
  model_.set_direct(a_, b_, Probability(0.7));
  EXPECT_NEAR(model_.influence(a_, b_).value(), 0.7, 1e-12);
  EXPECT_EQ(model_.influence(b_, a_), Probability::zero());
}

TEST_F(InfluenceModelTest, MutualInfluenceSumsBothDirections) {
  model_.set_direct(a_, b_, Probability(0.7));
  model_.set_direct(b_, a_, Probability(0.6));
  EXPECT_NEAR(model_.mutual_influence(a_, b_), 1.3, 1e-12);
}

TEST_F(InfluenceModelTest, DirectAndFactorsAreExclusive) {
  model_.set_direct(a_, b_, Probability(0.5));
  EXPECT_THROW(model_.add_factor(
                   a_, b_, make_factor(FactorKind::kTiming, 0.1, 0.1, 0.1)),
               InvalidArgument);
  model_.add_factor(b_, a_, make_factor(FactorKind::kTiming, 0.1, 0.1, 0.1));
  EXPECT_THROW(model_.set_direct(b_, a_, Probability(0.2)), InvalidArgument);
}

TEST_F(InfluenceModelTest, SelfInfluenceRejected) {
  EXPECT_THROW(model_.set_direct(a_, a_, Probability(0.5)), InvalidArgument);
}

TEST_F(InfluenceModelTest, NonMemberThrows) {
  EXPECT_THROW(model_.set_direct(FcmId(9), a_, Probability(0.5)), NotFound);
}

TEST_F(InfluenceModelTest, IsolationAppliedToFactors) {
  model_.add_factor(a_, b_,
                    make_factor(FactorKind::kSharedMemory, 1.0, 0.5, 1.0));
  IsolationConfig config;
  config.enable(IsolationTechnique::kMemorySeparation, 0.2);
  EXPECT_NEAR(model_.influence(a_, b_, config).value(), 0.1, 1e-12);
}

TEST_F(InfluenceModelTest, ToGraphCarriesWeightsAndLabels) {
  model_.add_factor(a_, b_,
                    make_factor(FactorKind::kSharedMemory, 1.0, 0.5, 1.0));
  model_.set_direct(b_, c_, Probability(0.25));
  const auto g = model_.to_graph();
  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_NEAR(g.weight(0, 1).value(), 0.5, 1e-12);
  EXPECT_NEAR(g.weight(1, 2).value(), 0.25, 1e-12);
  EXPECT_EQ(g.edge(0, 1).label, "shared-memory");
}

TEST_F(InfluenceModelTest, ToMatrixMatchesInfluence) {
  model_.set_direct(a_, b_, Probability(0.3));
  model_.set_direct(c_, a_, Probability(0.9));
  const auto m = model_.to_matrix();
  EXPECT_NEAR(m.at(0, 1), 0.3, 1e-12);
  EXPECT_NEAR(m.at(2, 0), 0.9, 1e-12);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 0.0);
}

TEST_F(InfluenceModelTest, PairWalkAscendsAndKeepsZeroPairs) {
  // Recorded out of order; a zero-valued direct pair is still recorded.
  model_.set_direct(c_, a_, Probability(0.9));
  model_.add_factor(b_, a_,
                    make_factor(FactorKind::kTiming, 1.0, 0.5, 1.0));
  model_.add_factor(b_, a_,
                    make_factor(FactorKind::kSharedMemory, 1.0, 0.2, 1.0));
  model_.set_direct(a_, c_, Probability(0.0));
  model_.set_direct(a_, b_, Probability(0.3));
  std::vector<std::pair<std::size_t, std::size_t>> visited;
  model_.for_each_pair([&](std::size_t from, std::size_t to, Probability p,
                           const std::vector<InfluenceFactor>& factors) {
    visited.emplace_back(from, to);
    EXPECT_EQ(p, model_.influence(model_.member(from), model_.member(to)));
    EXPECT_EQ(factors.size(),
              model_.factors(model_.member(from), model_.member(to)).size());
  });
  const std::vector<std::pair<std::size_t, std::size_t>> ascending = {
      {0, 1}, {0, 2}, {1, 0}, {2, 0}};
  EXPECT_EQ(visited, ascending);

  // to_graph keeps the recorded zero pair as a weight-0 edge, in the same
  // ascending order, with factor kinds as labels.
  const graph::Digraph g = model_.to_graph();
  ASSERT_EQ(g.edge_count(), 4u);
  for (std::size_t e = 0; e < ascending.size(); ++e) {
    EXPECT_EQ(g.edges()[e].from, ascending[e].first);
    EXPECT_EQ(g.edges()[e].to, ascending[e].second);
  }
  EXPECT_EQ(g.edge(0, 2).weight, 0.0);
  EXPECT_EQ(g.edge(1, 0).label, "timing,shared-memory");
  EXPECT_EQ(g.edge(0, 1).label, "");

  // to_matrix equals a lookup per ordered member pair.
  const graph::Matrix m = model_.to_matrix();
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(m.at(i, j),
                i == j ? 0.0
                       : model_.influence(model_.member(i), model_.member(j))
                             .value());
    }
  }
}

TEST_F(InfluenceModelTest, AddMemberIdempotent) {
  EXPECT_EQ(model_.add_member(a_, "A"), 0u);
  EXPECT_EQ(model_.member_count(), 3u);
}

TEST(IsolationConfig, EnableDisableFactor) {
  IsolationConfig config;
  EXPECT_FALSE(config.enabled(IsolationTechnique::kRecoveryBlocks));
  EXPECT_DOUBLE_EQ(config.factor(IsolationTechnique::kRecoveryBlocks), 1.0);
  config.enable(IsolationTechnique::kRecoveryBlocks, 0.3);
  EXPECT_TRUE(config.enabled(IsolationTechnique::kRecoveryBlocks));
  EXPECT_DOUBLE_EQ(config.factor(IsolationTechnique::kRecoveryBlocks), 0.3);
  config.enable(IsolationTechnique::kRecoveryBlocks, 0.1);  // overwrite
  EXPECT_DOUBLE_EQ(config.factor(IsolationTechnique::kRecoveryBlocks), 0.1);
  config.disable(IsolationTechnique::kRecoveryBlocks);
  EXPECT_FALSE(config.enabled(IsolationTechnique::kRecoveryBlocks));
}

TEST(IsolationConfig, RejectsOutOfRangeFactor) {
  IsolationConfig config;
  EXPECT_THROW(config.enable(IsolationTechnique::kResourceQuotas, 1.5),
               InvalidArgument);
}

}  // namespace
}  // namespace fcm::core
