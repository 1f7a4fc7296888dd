// Differential tests for the cluster-pair influence cache: every heuristic
// must produce bitwise-identical partitions, step logs, and quotients with
// memoization on and off, and the cache must actually earn its keep (>= 50%
// hit rate) on the paper's §6 example.
#include "mapping/clustering.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "core/example98.h"

namespace fcm::mapping {
namespace {

struct Fixture {
  core::example98::Instance instance = core::example98::make_instance();
  SwGraph sw = SwGraph::build(instance.hierarchy, instance.influence,
                              instance.processes);

  [[nodiscard]] ClusterEngine engine(bool use_cache) const {
    ClusteringOptions options;
    options.target_clusters = 6;
    options.use_influence_cache = use_cache;
    options.log_steps = true;  // expect_identical compares the step logs
    return ClusterEngine(sw, options);
  }
};

void expect_identical(const ClusteringResult& a, const ClusteringResult& b) {
  EXPECT_EQ(a.partition.cluster_count, b.partition.cluster_count);
  EXPECT_EQ(a.partition.cluster_of, b.partition.cluster_of);
  EXPECT_EQ(a.steps, b.steps);
  ASSERT_EQ(a.quotient.node_count(), b.quotient.node_count());
  for (graph::NodeIndex n = 0; n < a.quotient.node_count(); ++n) {
    EXPECT_EQ(a.quotient.name(n), b.quotient.name(n));
  }
  ASSERT_EQ(a.quotient.edges().size(), b.quotient.edges().size());
  for (std::size_t e = 0; e < a.quotient.edges().size(); ++e) {
    EXPECT_EQ(a.quotient.edges()[e].from, b.quotient.edges()[e].from);
    EXPECT_EQ(a.quotient.edges()[e].to, b.quotient.edges()[e].to);
    EXPECT_DOUBLE_EQ(a.quotient.edges()[e].weight,
                     b.quotient.edges()[e].weight);
  }
}

void expect_cache_transparent(
    const Fixture& fx,
    const std::function<ClusteringResult(ClusterEngine&)>& heuristic) {
  ClusterEngine cached = fx.engine(true);
  ClusterEngine uncached = fx.engine(false);
  const ClusteringResult with = heuristic(cached);
  const ClusteringResult without = heuristic(uncached);
  expect_identical(with, without);
  EXPECT_EQ(uncached.influence_cache_stats().hits, 0u);
}

TEST(ClusteringCache, H1GreedyIsCacheTransparent) {
  Fixture fx;
  expect_cache_transparent(fx,
                           [](ClusterEngine& e) { return e.h1_greedy(); });
}

TEST(ClusteringCache, H1RoundsIsCacheTransparent) {
  Fixture fx;
  expect_cache_transparent(fx,
                           [](ClusterEngine& e) { return e.h1_rounds(); });
}

TEST(ClusteringCache, H2MincutIsCacheTransparent) {
  Fixture fx;
  ClusterEngine cached = fx.engine(true);
  ClusterEngine uncached = fx.engine(false);
  // H2 only consults the pair cache in its repair/re-merge phase, which the
  // §6 example may not enter — transparency is still required.
  expect_identical(cached.h2_mincut(), uncached.h2_mincut());
}

TEST(ClusteringCache, H3ImportanceIsCacheTransparent) {
  Fixture fx;
  expect_cache_transparent(
      fx, [](ClusterEngine& e) { return e.h3_importance(); });
}

TEST(ClusteringCache, CriticalityPairingUnaffectedByCacheFlag) {
  Fixture fx;
  ClusterEngine cached = fx.engine(true);
  ClusterEngine uncached = fx.engine(false);
  expect_identical(cached.criticality_pairing(),
                   uncached.criticality_pairing());
}

TEST(ClusteringCache, H1HitRateOnSection6ExampleIsAtLeastHalf) {
  // The acceptance bar for the memoization layer: during an H1 run that
  // rescans all pairs per merge (the scan reference path — the pair heap
  // asks for each candidate exactly once, so it has nothing to re-serve),
  // at least half of all pair-influence queries must come from the memo
  // (only pairs touching the merged cluster are invalidated per step; all
  // others survive).
  Fixture fx;
  ClusteringOptions options;
  options.target_clusters = 6;
  options.use_influence_cache = true;
  options.use_pair_heap = false;
  ClusterEngine engine(fx.sw, options);
  (void)engine.h1_greedy();
  const core::CacheStats& stats = engine.influence_cache_stats();
  EXPECT_GT(stats.misses, 0u);
  EXPECT_GE(stats.hit_rate(), 0.5);
}

TEST(ClusteringCache, PairHeapAsksEachCandidatePairOnce) {
  // The flip side: the heap's whole point is to never re-ask. Every query
  // is either the initial build or a fresh pair created by a merge, so a
  // memo would only ever miss; the heap reads the bundles directly and
  // leaves the memo untouched.
  Fixture fx;
  ClusterEngine engine = fx.engine(true);
  (void)engine.h1_greedy();
  const core::CacheStats& stats = engine.influence_cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
}

TEST(ClusteringCache, RepeatedRunsOnOneEngineStayConsistent) {
  // The cache resets per heuristic invocation; a second run must reproduce
  // the first exactly.
  Fixture fx;
  ClusterEngine engine = fx.engine(true);
  const ClusteringResult first = engine.h1_greedy();
  const ClusteringResult second = engine.h1_greedy();
  expect_identical(first, second);
}

}  // namespace
}  // namespace fcm::mapping
