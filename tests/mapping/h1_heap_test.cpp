// Differential tests for the greedy-merge pair heap: H1 (and the H2 repair
// phase, which shares the loop) must produce byte-identical step logs and
// partitions to the full O(k²) rescan kept in h1_scan_reference.h —
// including which Infeasible cases are hit.
#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "core/example98.h"
#include "h1_scan_reference.h"
#include "mapping/clustering.h"

namespace fcm::mapping {
namespace {

using core::example98::make_instance;

struct RandomSystem {
  core::FcmHierarchy hierarchy;
  core::InfluenceModel influence;
  std::vector<FcmId> processes;
};

RandomSystem random_system(std::uint64_t seed) {
  Rng rng(seed);
  RandomSystem sys;
  const std::size_t n = 5 + rng.below(6);  // 5..10 processes
  for (std::size_t i = 0; i < n; ++i) {
    core::Attributes attrs;
    attrs.criticality = static_cast<core::Criticality>(rng.range(1, 10));
    attrs.replication =
        rng.uniform() < 0.25 ? static_cast<int>(rng.range(2, 3)) : 1;
    const std::int64_t est = rng.range(0, 20);
    const std::int64_t ct = rng.range(1, 8);
    const std::int64_t tcd = est + ct + rng.range(2, 40);
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
      if (i != j && rng.uniform() < 0.35) {
        sys.influence.set_direct(sys.processes[i], sys.processes[j],
                                 Probability(rng.uniform(0.05, 0.8)));
      }
    }
  }
  return sys;
}

// Runs the engine's `method` and the test-side scan from the engine loop's
// start partition; both must agree on outcome (result vs Infeasible), step
// log, partition, and quotient. H1 starts from the identity; H2's repair
// phase starts from the engine's final partition with its logged
// repair-merges undone.
void expect_identical(const SwGraph& sw, std::size_t target,
                      ClusteringResult (ClusterEngine::*method)(),
                      const char* what) {
  ClusteringOptions options;
  options.target_clusters = target;
  options.log_steps = true;  // the step logs are compared below
  ClusterEngine engine(sw, options);
  const bool h1 = method == &ClusterEngine::h1_greedy;

  bool heap_infeasible = false;
  std::string heap_message;
  ClusteringResult heap_result;
  try {
    heap_result = (engine.*method)();
  } catch (const Infeasible& e) {
    heap_infeasible = true;
    heap_message = e.what();
  }
  if (heap_infeasible && !h1) {
    // No final partition to undo; the H1 cases and the feasible H2 cases
    // carry the comparison.
    EXPECT_EQ(heap_message, "H2: repair phase cannot re-merge to the target")
        << what << " target " << target;
    return;
  }

  const std::vector<std::string> heap_steps =
      h1 ? heap_result.steps
         : reference::steps_starting_with(heap_result.steps, "repair-merge ");
  const graph::Partition start =
      h1 ? graph::Partition::identity(sw.node_count())
         : reference::undo_merges(sw, heap_result.partition, heap_steps);
  const reference::ScanOutcome scan = reference::scan_merge_to_target(
      sw, options, start,
      h1 ? reference::ScanStyle::kCombine
         : reference::ScanStyle::kRepairMerge);

  ASSERT_EQ(scan.infeasible, heap_infeasible)
      << what << " target " << target << ": paths disagree on feasibility";
  if (scan.infeasible) {
    EXPECT_EQ(scan.message, heap_message) << what << " target " << target;
    return;
  }
  EXPECT_EQ(scan.steps, heap_steps) << what << " target " << target;
  EXPECT_EQ(scan.partition.cluster_of, heap_result.partition.cluster_of)
      << what << " target " << target;
  EXPECT_EQ(reference::cross_cluster_influence(sw, scan.partition),
            heap_result.cross_cluster_influence())
      << what << " target " << target;
}

TEST(H1PairHeap, MatchesScanOnExample98AtEveryTarget) {
  core::example98::Instance instance = make_instance();
  const SwGraph sw = SwGraph::build(instance.hierarchy, instance.influence,
                                    instance.processes);
  for (std::size_t target = 3; target <= sw.node_count(); ++target) {
    expect_identical(sw, target, &ClusterEngine::h1_greedy, "h1_greedy");
  }
}

TEST(H1PairHeap, MatchesScanOnRepairPhaseViaH2) {
  // h2_mincut's tail re-merge runs the same greedy loop in repair-merge
  // flavor; low targets force the repair phase to do real work.
  core::example98::Instance instance = make_instance();
  const SwGraph sw = SwGraph::build(instance.hierarchy, instance.influence,
                                    instance.processes);
  for (std::size_t target = 3; target <= 8; ++target) {
    expect_identical(sw, target, &ClusterEngine::h2_mincut, "h2_mincut");
  }
}

class PairHeapSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PairHeapSweep, MatchesScanOnRandomSystems) {
  const RandomSystem sys = random_system(GetParam());
  const SwGraph sw =
      SwGraph::build(sys.hierarchy, sys.influence, sys.processes);
  int max_replication = 1;
  for (const SwNode& node : sw.nodes()) {
    max_replication = std::max(max_replication, node.attributes.replication);
  }
  for (std::size_t target = static_cast<std::size_t>(max_replication);
       target <= sw.node_count(); ++target) {
    expect_identical(sw, target, &ClusterEngine::h1_greedy, "h1_greedy");
    expect_identical(sw, target, &ClusterEngine::h2_mincut, "h2_mincut");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PairHeapSweep,
                         ::testing::Range<std::uint64_t>(1, 17));

TEST(H1PairHeap, TightestTargetAgreesOnOutcomeAndMessage) {
  // Target 3 (the TMR replication floor) forces the loop deep into merges
  // the timing devices reject; whether that ends in a clustering or in
  // Infeasible, the heap must match the scan — including the exact message
  // when both throw.
  core::example98::Instance instance = make_instance();
  const SwGraph sw = SwGraph::build(instance.hierarchy, instance.influence,
                                    instance.processes);
  expect_identical(sw, 3, &ClusterEngine::h1_greedy, "h1_greedy");
}

}  // namespace
}  // namespace fcm::mapping
