// Differential tests for the cluster-pair bundle cache
// (ClusterEngine::QuotientCache): every heuristic that reads it — H1, the
// H2 repair phase, H1-rounds and H3 — must produce bitwise-identical
// partitions and step logs to a test-side run that recomputes each Eq. 4
// value from the SW edges instead (h1_scan_reference.h), on the paper's §6
// example. The cache is reset per run, so one engine may run heuristics
// back to back.
#include "mapping/clustering.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "core/example98.h"
#include "h1_scan_reference.h"

namespace fcm::mapping {
namespace {

struct Fixture {
  core::example98::Instance instance = core::example98::make_instance();
  SwGraph sw = SwGraph::build(instance.hierarchy, instance.influence,
                              instance.processes);

  [[nodiscard]] static ClusteringOptions options() {
    ClusteringOptions options;
    options.target_clusters = 6;
    options.log_steps = true;  // the step logs are compared below
    return options;
  }
  [[nodiscard]] ClusterEngine engine() const {
    return ClusterEngine(sw, options());
  }
};

void expect_identical(const reference::ScanOutcome& uncached,
                      const ClusteringResult& cached) {
  ASSERT_FALSE(uncached.infeasible) << uncached.message;
  EXPECT_EQ(uncached.partition.cluster_of, cached.partition.cluster_of);
  EXPECT_EQ(uncached.steps, cached.steps);
}

// ClusterEngine::h1_rounds with every pair's mutual influence recomputed
// from the SW edges each round.
reference::ScanOutcome uncached_h1_rounds(const SwGraph& sw,
                                          const ClusteringOptions& options) {
  ClusterEngine checker(sw, options);  // only its can_combine is used
  reference::ScanOutcome out;
  graph::Partition partition = graph::Partition::identity(sw.node_count());
  for (int round = 1; partition.cluster_count > options.target_clusters;
       ++round) {
    const std::size_t k = partition.cluster_count;
    const auto groups = partition.groups();
    const std::vector<double> influence =
        reference::directed_influence(sw, partition);
    struct Pair {
      double m;
      std::uint32_t a, b;
    };
    std::vector<Pair> pairs;
    for (std::uint32_t a = 0; a < k; ++a) {
      for (std::uint32_t b = a + 1; b < k; ++b) {
        pairs.push_back({influence[a * k + b] + influence[b * k + a], a, b});
      }
    }
    std::sort(pairs.begin(), pairs.end(), [](const Pair& x, const Pair& y) {
      if (x.m != y.m) return x.m > y.m;
      if (x.a != y.a) return x.a < y.a;
      return x.b < y.b;
    });
    std::vector<bool> taken(k, false);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> selected;
    for (const Pair& p : pairs) {
      if (selected.size() >= k - options.target_clusters) break;
      if (taken[p.a] || taken[p.b]) continue;
      if (!checker.can_combine(partition, p.a, p.b)) continue;
      taken[p.a] = taken[p.b] = true;
      selected.emplace_back(p.a, p.b);
      std::ostringstream step;
      step << "round " << round << ": pair "
           << reference::joined_names(sw, groups[p.a]) << " + "
           << reference::joined_names(sw, groups[p.b])
           << " (mutual influence " << p.m << ")";
      out.steps.push_back(step.str());
    }
    if (selected.empty()) {
      out.infeasible = true;
      out.message = "no combinable pair in round " + std::to_string(round);
      break;
    }
    for (const auto& [a, b] : selected) {
      partition.merge(groups[a].front(), groups[b].front());
    }
  }
  out.partition = std::move(partition);
  return out;
}

// ClusterEngine::h3_importance at its default thresholds (importance 1.0,
// influence 0.0), recomputing each mutual influence from the SW edges.
reference::ScanOutcome uncached_h3(const SwGraph& sw,
                                   const ClusteringOptions& options) {
  ClusterEngine checker(sw, options);  // only its can_combine is used
  reference::ScanOutcome out;
  const std::size_t n = sw.node_count();
  const std::size_t seeds = std::min(options.target_clusters, n);
  std::vector<graph::NodeIndex> order(n);
  for (std::size_t v = 0; v < n; ++v) {
    order[v] = static_cast<graph::NodeIndex>(v);
  }
  std::sort(order.begin(), order.end(),
            [&](graph::NodeIndex a, graph::NodeIndex b) {
              if (sw.node(a).importance != sw.node(b).importance) {
                return sw.node(a).importance > sw.node(b).importance;
              }
              return a < b;
            });
  std::vector<bool> is_seed(n, false);
  for (std::size_t k = 0; k < seeds; ++k) {
    is_seed[order[k]] = true;
    out.steps.push_back("seed " + sw.node(order[k]).name + " (importance " +
                        std::to_string(sw.node(order[k]).importance) + ")");
  }
  graph::Partition partition = graph::Partition::identity(n);
  for (std::size_t k = seeds; k < n; ++k) {
    const graph::NodeIndex v = order[k];
    const std::size_t clusters = partition.cluster_count;
    const auto groups = partition.groups();
    const std::vector<double> influence =
        reference::directed_influence(sw, partition);
    const std::uint32_t own = partition.cluster_of[v];
    double best = -1.0;
    std::uint32_t best_cluster = 0;
    for (std::size_t s = 0; s < n; ++s) {
      const std::uint32_t c = partition.cluster_of[s];
      if (!is_seed[s] || c == own) continue;
      const double m =
          influence[own * clusters + c] + influence[c * clusters + own];
      const bool admitted = sw.node(v).importance < 1.0 || m > 0.0;
      if (admitted && m > best && checker.can_combine(partition, own, c)) {
        best = m;
        best_cluster = c;
      }
    }
    if (best < 0.0) {
      out.infeasible = true;
      out.message = sw.node(v).name + " fits no sphere of influence";
      break;
    }
    out.steps.push_back("attach " + sw.node(v).name + " -> {" +
                        reference::joined_names(sw, groups[best_cluster]) +
                        "} (mutual influence " + std::to_string(best) + ")");
    partition.merge(v, groups[best_cluster].front());
  }
  out.partition = std::move(partition);
  return out;
}

TEST(ClusteringCache, H1GreedyIsCacheTransparent) {
  Fixture fx;
  ClusterEngine engine = fx.engine();
  expect_identical(
      reference::scan_merge_to_target(
          fx.sw, Fixture::options(),
          graph::Partition::identity(fx.sw.node_count()),
          reference::ScanStyle::kCombine),
      engine.h1_greedy());
}

TEST(ClusteringCache, H1RoundsIsCacheTransparent) {
  Fixture fx;
  ClusterEngine engine = fx.engine();
  expect_identical(uncached_h1_rounds(fx.sw, Fixture::options()),
                   engine.h1_rounds());
}

TEST(ClusteringCache, H2MincutIsCacheTransparent) {
  // H2 reads the cache only in its repair phase, which starts from the
  // final partition with the logged repair-merges undone.
  Fixture fx;
  ClusterEngine engine = fx.engine();
  const ClusteringResult cached = engine.h2_mincut();
  const std::vector<std::string> merges =
      reference::steps_starting_with(cached.steps, "repair-merge ");
  ASSERT_FALSE(merges.empty());
  const reference::ScanOutcome uncached = reference::scan_merge_to_target(
      fx.sw, Fixture::options(),
      reference::undo_merges(fx.sw, cached.partition, merges),
      reference::ScanStyle::kRepairMerge);
  ASSERT_FALSE(uncached.infeasible) << uncached.message;
  EXPECT_EQ(uncached.partition.cluster_of, cached.partition.cluster_of);
  EXPECT_EQ(uncached.steps, merges);
}

TEST(ClusteringCache, H3ImportanceIsCacheTransparent) {
  Fixture fx;
  ClusterEngine engine = fx.engine();
  expect_identical(uncached_h3(fx.sw, Fixture::options()),
                   engine.h3_importance());
}

TEST(ClusteringCache, RepeatedRunsOnOneEngineStayConsistent) {
  // The cache resets per heuristic invocation; a second run must reproduce
  // the first exactly, even with another heuristic's merges in between.
  Fixture fx;
  ClusterEngine engine = fx.engine();
  const ClusteringResult first = engine.h1_greedy();
  (void)engine.h3_importance();
  const ClusteringResult second = engine.h1_greedy();
  EXPECT_EQ(first.partition.cluster_of, second.partition.cluster_of);
  EXPECT_EQ(first.steps, second.steps);
  ASSERT_EQ(first.quotient.edges().size(), second.quotient.edges().size());
  for (std::size_t e = 0; e < first.quotient.edges().size(); ++e) {
    EXPECT_EQ(first.quotient.edges()[e].from, second.quotient.edges()[e].from);
    EXPECT_EQ(first.quotient.edges()[e].to, second.quotient.edges()[e].to);
    EXPECT_EQ(first.quotient.edges()[e].weight,
              second.quotient.edges()[e].weight);
  }
}

}  // namespace
}  // namespace fcm::mapping
