// Differential test: graph::global_min_cut_subset (one flat matrix, one
// fused pass per maximum-adjacency round) against the two-pass loop it
// replaced (stoer_wagner_reference.h). Every cut must carry the same weight
// bits and the same side, on random graphs, on inputs that force key ties,
// and on every part H2 cuts on example98 and synthetic-64 systems.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "core/example98.h"
#include "core/synthetic.h"
#include "graph/mincut.h"
#include "mapping/clustering.h"
#include "mapping/hw.h"
#include "mapping/swgraph.h"
#include "stoer_wagner_reference.h"

namespace fcm::graph {
namespace {

std::vector<NodeIndex> all_nodes(const Digraph& g) {
  std::vector<NodeIndex> all(g.node_count());
  for (NodeIndex v = 0; v < g.node_count(); ++v) all[v] = v;
  return all;
}

// Returns whether both kernels agree; reports the first difference.
bool same_cut(const Digraph& g, const std::vector<NodeIndex>& subset,
              const std::string& what) {
  const CutResult got = global_min_cut_subset(g, subset);
  const CutResult want = reference::global_min_cut_subset(g, subset);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.weight),
            std::bit_cast<std::uint64_t>(want.weight))
      << what << ": weight " << got.weight << " vs " << want.weight;
  EXPECT_EQ(got.in_first_side, want.in_first_side) << what << ": side";
  return std::bit_cast<std::uint64_t>(got.weight) ==
             std::bit_cast<std::uint64_t>(want.weight) &&
         got.in_first_side == want.in_first_side;
}

// How the weight of each present edge is drawn. Small integers, tenths
// and equal weights make keys tie; tenths also make a key's bits depend
// on the order of its additions.
enum class Weights { kUniform, kSmallIntegers, kTenths, kAllEqual, kWithZeros };

Digraph random_graph(std::size_t n, double fill, Weights weights, Rng& rng) {
  Digraph g;
  for (std::size_t i = 0; i < n; ++i) g.add_node("v" + std::to_string(i));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j || rng.uniform() >= fill) continue;
      double w = 0.0;
      switch (weights) {
        case Weights::kUniform:
          w = rng.uniform(0.001, 1.0);
          break;
        case Weights::kSmallIntegers:
          w = static_cast<double>(rng.below(4));
          break;
        case Weights::kTenths:
          w = 0.1 * static_cast<double>(1 + rng.below(3));
          break;
        case Weights::kAllEqual:
          w = 0.5;
          break;
        case Weights::kWithZeros:
          // Replica pairs carry weight-0 edges; -0.0 is non-negative too.
          w = rng.chance(Probability(0.3))
                  ? (rng.chance(Probability(0.5)) ? 0.0 : -0.0)
                  : rng.uniform(0.0, 0.2);
          break;
      }
      g.add_edge(static_cast<NodeIndex>(i), static_cast<NodeIndex>(j), w);
    }
  }
  return g;
}

TEST(MinCutReference, RandomGraphs) {
  Rng rng(2026);
  int cases = 0;
  for (const std::size_t n : {2, 3, 4, 5, 7, 12, 20, 33, 64, 99, 150, 200}) {
    for (const double fill : {0.05, 0.2, 0.5, 1.0}) {
      for (const Weights weights :
           {Weights::kUniform, Weights::kSmallIntegers, Weights::kTenths,
            Weights::kAllEqual, Weights::kWithZeros}) {
        // Fewer draws at the sizes where the reference is slow.
        const int draws = n >= 150 ? 1 : 3;
        for (int d = 0; d < draws; ++d) {
          const Digraph g = random_graph(n, fill, weights, rng);
          std::ostringstream what;
          what << "n=" << n << " fill=" << fill
               << " weights=" << static_cast<int>(weights) << " draw=" << d;
          ASSERT_TRUE(same_cut(g, all_nodes(g), what.str()));
          ++cases;
        }
      }
    }
  }
  EXPECT_GT(cases, 500);
}

TEST(MinCutReference, ManyTiesOnSmallGraphs) {
  // Keys tie often here, so the picks depend on the smallest-row rule
  // and, after merges, on which row a merged node keeps.
  Rng rng(5);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t n = 4 + rng.below(40);
    const double fill = 0.1 + 0.6 * rng.uniform();
    for (const Weights weights :
         {Weights::kSmallIntegers, Weights::kTenths, Weights::kAllEqual}) {
      const Digraph g = random_graph(n, fill, weights, rng);
      ASSERT_TRUE(same_cut(g, all_nodes(g),
                           "trial " + std::to_string(trial) + " weights=" +
                               std::to_string(static_cast<int>(weights))));
    }
  }
}

TEST(MinCutReference, DisconnectedAndEdgelessGraphs) {
  Rng rng(7);
  for (const std::size_t n : {2, 3, 6, 17, 40}) {
    // No edges: every phase cuts weight zero.
    Digraph empty;
    for (std::size_t i = 0; i < n; ++i) empty.add_node(std::to_string(i));
    ASSERT_TRUE(same_cut(empty, all_nodes(empty),
                         "edgeless n=" + std::to_string(n)));

    // Two dense components and an isolated node.
    Digraph split;
    for (std::size_t i = 0; i < 2 * n + 1; ++i) {
      split.add_node(std::to_string(i));
    }
    for (std::size_t i = 0; i < 2 * n; ++i) {
      for (std::size_t j = 0; j < 2 * n; ++j) {
        if (i == j || (i < n) != (j < n) || rng.uniform() < 0.4) continue;
        split.add_edge(static_cast<NodeIndex>(i), static_cast<NodeIndex>(j),
                       rng.uniform(0.1, 1.0));
      }
    }
    ASSERT_TRUE(same_cut(split, all_nodes(split),
                         "two components n=" + std::to_string(n)));
  }
}

TEST(MinCutReference, UnsortedAndPartialSubsets) {
  Rng rng(11);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = 3 + rng.below(120);
    const Weights weights = trial % 2 == 0 ? Weights::kUniform
                                           : Weights::kSmallIntegers;
    const Digraph g = random_graph(n, 0.05 + 0.95 * rng.uniform(), weights,
                                   rng);
    std::vector<NodeIndex> subset = all_nodes(g);
    rng.shuffle(std::span<NodeIndex>(subset));
    if (trial % 3 != 0) {
      subset.resize(2 + rng.below(static_cast<std::uint32_t>(n - 1)));
    }
    ASSERT_TRUE(same_cut(g, subset, "trial " + std::to_string(trial)));
    // And on the same nodes in ascending order.
    std::sort(subset.begin(), subset.end());
    ASSERT_TRUE(same_cut(g, subset,
                         "sorted trial " + std::to_string(trial)));
  }
}

// Every part H2 (and H2 with its first cut s-t) bisects while planning a
// system on a complete platform of `hw` nodes, as the planner configures
// the engine; the parts are read back from the step log.
std::vector<std::vector<NodeIndex>> h2_parts(const mapping::SwGraph& sw,
                                             int hw) {
  const mapping::HwGraph platform = mapping::HwGraph::complete(hw);
  mapping::ClusteringOptions options;
  options.target_clusters = platform.node_count();
  options.log_steps = true;
  options.resource_check = [&](const std::set<std::string>& required) {
    for (const mapping::HwNode& node : platform.nodes()) {
      if (std::includes(node.resources.begin(), node.resources.end(),
                        required.begin(), required.end())) {
        return true;
      }
    }
    return false;
  };
  std::unordered_map<std::string, NodeIndex> index;
  for (NodeIndex v = 0; v < sw.node_count(); ++v) index[sw.node(v).name] = v;

  std::vector<std::vector<NodeIndex>> parts;
  mapping::ClusterEngine engine(sw, options);
  for (const mapping::ClusteringResult& result :
       {engine.h2_mincut(), engine.h2_st_cut()}) {
    for (const std::string& step : result.steps) {
      // "cut {a,b,c} -> {a} | {b,c} (cut weight w)"
      if (step.rfind("cut {", 0) != 0) continue;
      std::istringstream names(step.substr(5, step.find('}') - 5));
      std::vector<NodeIndex> part;
      for (std::string name; std::getline(names, name, ',');) {
        part.push_back(index.at(name));
      }
      parts.push_back(std::move(part));
    }
  }
  return parts;
}

TEST(MinCutReference, EveryPartH2CutsOnExample98AndSynthetic64) {
  std::size_t parts = 0;
  {
    const auto instance = core::example98::make_instance();
    const mapping::SwGraph sw = mapping::SwGraph::build(
        instance.hierarchy, instance.influence, instance.processes);
    for (const auto& part : h2_parts(sw, core::example98::kHwNodes)) {
      ASSERT_TRUE(same_cut(sw.influence_graph(), part, "example98"));
      ++parts;
    }
  }
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const core::synthetic::System system =
        core::synthetic::make_system(64, seed);
    const mapping::SwGraph sw = mapping::SwGraph::build(
        system.hierarchy, system.influence, system.processes);
    for (const auto& part : h2_parts(sw, 21)) {
      ASSERT_TRUE(same_cut(sw.influence_graph(), part,
                           "synthetic-64-" + std::to_string(seed)));
      ++parts;
    }
  }
  // Each synthetic-64 system has H2 peel dozens of single nodes.
  EXPECT_GT(parts, 500u);
}

}  // namespace
}  // namespace fcm::graph
