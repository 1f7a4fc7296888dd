// tier2-scale: the fast-path equivalences at sizes closer to bench_scale
// than the tier1 unit tests — the series kernel at n=96, the H1 pair heap
// against the test-side scan (mapping/h1_scan_reference.h) at a ~100-node
// SW graph, and the parallel planner sweep on a 32-process system. Everything here is a bitwise-equivalence check; timing claims
// live in bench/bench_scale.cpp.
#include <gtest/gtest.h>

#include <cstring>

#include "../mapping/h1_scan_reference.h"
#include "common/rng.h"
#include "graph/series.h"
#include "mapping/clustering.h"
#include "mapping/planner.h"

namespace fcm {
namespace {

graph::Matrix random_influence(std::size_t n, double fill,
                               std::uint64_t seed) {
  Rng rng(seed);
  graph::Matrix p(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && rng.uniform() < fill) {
        p.at(i, j) = rng.uniform(0.05, 0.9);
      }
    }
  }
  return p;
}

void expect_bitwise_equal(const graph::Matrix& a, const graph::Matrix& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        a.size() * a.size() * sizeof(double)),
            0);
}

// A process system with generous timing windows so clusters stay
// schedulable even when many processes share a node.
struct RandomSystem {
  core::FcmHierarchy hierarchy;
  core::InfluenceModel influence;
  std::vector<FcmId> processes;
};

RandomSystem random_system(std::size_t n, double fill, std::uint64_t seed) {
  Rng rng(seed);
  RandomSystem sys;
  for (std::size_t i = 0; i < n; ++i) {
    core::Attributes attrs;
    attrs.criticality = static_cast<core::Criticality>(rng.range(1, 10));
    const std::int64_t est = rng.range(0, 5);
    const std::int64_t ct = rng.range(1, 3);
    const std::int64_t tcd = est + ct + rng.range(200, 400);
    attrs.timing = core::TimingSpec::one_shot(
        Instant::epoch() + Duration::millis(est),
        Instant::epoch() + Duration::millis(tcd), Duration::millis(ct));
    const FcmId id = sys.hierarchy.create("p" + std::to_string(i + 1),
                                          core::Level::kProcess, attrs);
    sys.influence.add_member(id, sys.hierarchy.get(id).name);
    sys.processes.push_back(id);
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && rng.uniform() < fill) {
        sys.influence.set_direct(sys.processes[i], sys.processes[j],
                                 Probability(rng.uniform(0.05, 0.8)));
      }
    }
  }
  return sys;
}

TEST(ScaleSeries, KernelsBitwiseEqualAtN96) {
  // A sparse (5%) and a dense (40%) influence matrix.
  for (const double fill : {0.05, 0.40}) {
    const graph::Matrix p = random_influence(96, fill, 2026);
    expect_bitwise_equal(graph::power_series_sum(p, {.max_order = 6}),
                         graph::power_series_sum_reference(p, 6));
  }
}

TEST(ScaleClustering, PairHeapMatchesScanAtHundredNodes) {
  const RandomSystem sys = random_system(100, 0.05, 7);
  const mapping::SwGraph sw =
      mapping::SwGraph::build(sys.hierarchy, sys.influence, sys.processes);
  for (const std::size_t target : {12u, 48u}) {
    mapping::ClusteringOptions options;
    options.target_clusters = target;
    // Pure graph condensation: the equivalence claim is about merge order,
    // and skipping the oracle keeps this suite fast under plain `ctest`.
    options.enforce_schedulability = false;
    options.log_steps = true;  // the step logs are compared below

    const mapping::reference::ScanOutcome scan =
        mapping::reference::scan_merge_to_target(
            sw, options, graph::Partition::identity(sw.node_count()),
            mapping::reference::ScanStyle::kCombine);
    ASSERT_FALSE(scan.infeasible) << scan.message;

    mapping::ClusterEngine heap_engine(sw, options);
    const mapping::ClusteringResult heap = heap_engine.h1_greedy();

    EXPECT_EQ(scan.steps, heap.steps);
    EXPECT_EQ(scan.partition.cluster_of, heap.partition.cluster_of);
    EXPECT_EQ(mapping::reference::cross_cluster_influence(sw, scan.partition),
              heap.cross_cluster_influence());
  }
}

TEST(ScalePlanner, SweepThreadsAgreeOnThirtyTwoProcesses) {
  auto best = [](std::uint32_t threads) {
    const RandomSystem sys = random_system(32, 0.12, 11);
    const mapping::HwGraph hw = mapping::HwGraph::complete(8);
    mapping::PlanOptions options;
    options.sweep_threads = threads;
    mapping::IntegrationPlanner planner(sys.hierarchy, sys.influence,
                                        sys.processes, hw, options);
    return planner.best_plan();
  };
  const mapping::Plan sequential = best(1);
  for (const std::uint32_t threads : {4u, 8u}) {
    const mapping::Plan parallel = best(threads);
    EXPECT_EQ(sequential.heuristic, parallel.heuristic);
    EXPECT_EQ(sequential.clustering.partition.cluster_of,
              parallel.clustering.partition.cluster_of);
    EXPECT_EQ(sequential.assignment.hw_of, parallel.assignment.hw_of);
    EXPECT_EQ(sequential.quality.score(), parallel.quality.score());
  }
}

}  // namespace
}  // namespace fcm
