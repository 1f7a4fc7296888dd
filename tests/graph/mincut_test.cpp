#include "graph/mincut.h"

#include <gtest/gtest.h>

#include <limits>
#include <numeric>

#include "common/error.h"
#include "common/rng.h"

namespace fcm::graph {
namespace {

// Brute-force min cut over all 2-partitions (for small n).
double brute_force_min_cut(const Digraph& g) {
  const std::size_t n = g.node_count();
  double best = std::numeric_limits<double>::infinity();
  for (std::uint32_t mask = 1; mask + 1 < (1u << n); ++mask) {
    double crossing = 0.0;
    for (const Edge& e : g.edges()) {
      const bool a = (mask >> e.from) & 1u;
      const bool b = (mask >> e.to) & 1u;
      if (a != b) crossing += e.weight;
    }
    best = std::min(best, crossing);
  }
  return best;
}

double cut_weight(const Digraph& g, const std::vector<bool>& side) {
  double crossing = 0.0;
  for (const Edge& e : g.edges()) {
    if (side[e.from] != side[e.to]) crossing += e.weight;
  }
  return crossing;
}

TEST(MinCut, TwoNodeGraph) {
  Digraph g;
  g.add_node("a");
  g.add_node("b");
  g.add_edge(0, 1, 0.7);
  const CutResult cut = global_min_cut(g);
  EXPECT_NEAR(cut.weight, 0.7, 1e-12);
  EXPECT_NE(cut.in_first_side[0], cut.in_first_side[1]);
}

TEST(MinCut, BridgeBetweenTwoCliques) {
  // Two triangles joined by one light edge — the cut must be the bridge.
  Digraph g;
  for (int i = 0; i < 6; ++i) g.add_node(std::to_string(i));
  auto both = [&](NodeIndex a, NodeIndex b, double w) {
    g.add_edge(a, b, w);
  };
  both(0, 1, 5.0);
  both(1, 2, 5.0);
  both(2, 0, 5.0);
  both(3, 4, 5.0);
  both(4, 5, 5.0);
  both(5, 3, 5.0);
  both(2, 3, 0.5);  // the bridge
  const CutResult cut = global_min_cut(g);
  EXPECT_NEAR(cut.weight, 0.5, 1e-12);
  EXPECT_EQ(cut.in_first_side[0], cut.in_first_side[1]);
  EXPECT_EQ(cut.in_first_side[1], cut.in_first_side[2]);
  EXPECT_EQ(cut.in_first_side[3], cut.in_first_side[4]);
  EXPECT_NE(cut.in_first_side[2], cut.in_first_side[3]);
}

TEST(MinCut, DisconnectedGraphHasZeroCut) {
  Digraph g;
  g.add_node("a");
  g.add_node("b");
  g.add_node("c");
  g.add_edge(0, 1, 2.0);
  const CutResult cut = global_min_cut(g);
  EXPECT_NEAR(cut.weight, 0.0, 1e-12);
}

TEST(MinCut, RequiresTwoNodes) {
  Digraph g;
  g.add_node("only");
  EXPECT_THROW(global_min_cut(g), InvalidArgument);
}

TEST(MinCut, SubsetRestriction) {
  // Global cut of {0,1,2} ignoring node 3 entirely.
  Digraph g;
  for (int i = 0; i < 4; ++i) g.add_node(std::to_string(i));
  g.add_edge(0, 1, 3.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 3, 100.0);  // outside the subset; must not matter
  // Outside the subset, weights the cut rejects are ignored too.
  g.add_edge(3, 0, -5.0);
  g.add_edge(1, 3, std::numeric_limits<double>::quiet_NaN());
  const CutResult cut = global_min_cut_subset(g, {0, 1, 2});
  EXPECT_NEAR(cut.weight, 1.0, 1e-12);
  EXPECT_EQ(cut.in_first_side[0], cut.in_first_side[1]);
  EXPECT_NE(cut.in_first_side[1], cut.in_first_side[2]);
  EXPECT_FALSE(cut.in_first_side[3]);
}

// Stoer–Wagner is defined for non-negative weights only: a negative or
// NaN weight can leave a maximum-adjacency round with no key above its
// start, so the cut rejects it before it runs.
TEST(MinCut, RejectsNegativeWeights) {
  Digraph g;
  for (int i = 0; i < 3; ++i) g.add_node(std::to_string(i));
  g.add_edge(0, 1, -2.0);
  g.add_edge(1, 2, -2.0);
  g.add_edge(2, 0, -2.0);
  EXPECT_THROW(global_min_cut(g), InvalidArgument);
  EXPECT_THROW(global_min_cut_subset(g, {2, 0}), InvalidArgument);
}

TEST(MinCut, RejectsNaNWeights) {
  Digraph g;
  for (int i = 0; i < 3; ++i) g.add_node(std::to_string(i));
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, std::numeric_limits<double>::quiet_NaN());
  g.add_edge(2, 0, 1.0);
  EXPECT_THROW(global_min_cut(g), InvalidArgument);
  EXPECT_THROW(global_min_cut_subset(g, {1, 2}), InvalidArgument);
}

class MinCutRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MinCutRandom, MatchesBruteForce) {
  Rng rng(GetParam());
  Digraph g;
  const std::size_t n = 5 + rng.below(3);  // 5..7 nodes
  for (std::size_t i = 0; i < n; ++i) g.add_node(std::to_string(i));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      if (rng.uniform() < 0.5) {
        g.add_edge(static_cast<NodeIndex>(i), static_cast<NodeIndex>(j),
                   rng.uniform(0.1, 1.0));
      }
    }
  }
  if (g.edge_count() == 0) return;
  const CutResult cut = global_min_cut(g);
  EXPECT_NEAR(cut.weight, brute_force_min_cut(g), 1e-9);
  // Returned side must achieve the returned weight.
  EXPECT_NEAR(cut_weight(g, cut.in_first_side), cut.weight, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinCutRandom,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace fcm::graph
