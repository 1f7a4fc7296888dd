// Tests for hierarchical H1 (partition → cluster within parts in parallel →
// merge across parts). The determinism contract is the load-bearing part:
// bitwise-identical results for every worker-thread count and for one part
// vs many; plus differentials that pin the pair heap to the test-side scan
// (h1_scan_reference.h) — on h1h's cross-part merge, on flat H1 at 128
// processes, and on the zero-mutual fallback over disconnected influence
// graphs.
#include "mapping/clustering.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/probability.h"
#include "core/example98.h"
#include "core/synthetic.h"
#include "h1_scan_reference.h"
#include "mapping/planner.h"
#include "serve/protocol.h"
#include "serve/query.h"

namespace fcm::mapping {
namespace {

void expect_identical(const ClusteringResult& a, const ClusteringResult& b) {
  EXPECT_EQ(a.partition.cluster_count, b.partition.cluster_count);
  EXPECT_EQ(a.partition.cluster_of, b.partition.cluster_of);
  EXPECT_EQ(a.steps, b.steps);
}

// The test-side scan, run from `start`, must reproduce the engine's logged
// `merges` and its final partition.
void expect_scan_reproduces(const SwGraph& sw, const ClusteringOptions& opts,
                            const graph::Partition& start,
                            const std::vector<std::string>& merges,
                            const ClusteringResult& result) {
  const reference::ScanOutcome scan = reference::scan_merge_to_target(
      sw, opts, start, reference::ScanStyle::kCombine);
  ASSERT_FALSE(scan.infeasible) << scan.message;
  EXPECT_EQ(scan.steps, merges);
  EXPECT_EQ(scan.partition.cluster_of, result.partition.cluster_of);
}

struct Scaled {
  core::synthetic::System sys;
  SwGraph sw;

  explicit Scaled(std::size_t processes, std::uint64_t seed = 42)
      : sys(core::synthetic::make_system(processes, seed)),
        sw(SwGraph::build(sys.hierarchy, sys.influence, sys.processes)) {}

  [[nodiscard]] ClusteringOptions options(std::size_t target) const {
    ClusteringOptions opts;
    opts.target_clusters = target;
    opts.enforce_schedulability = false;
    opts.log_steps = true;  // expect_identical compares the step logs
    return opts;
  }
};

TEST(HierarchicalH1, ReachesTargetAndRespectsAntiAffinity) {
  const Scaled fx(256);
  ClusteringOptions opts = fx.options(64);
  ClusterEngine engine(fx.sw, opts);
  const ClusteringResult result = engine.h1_hierarchical();

  EXPECT_EQ(result.partition.cluster_count, 64u);
  result.partition.validate();
  for (const auto& members : result.partition.groups()) {
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (std::size_t j = i + 1; j < members.size(); ++j) {
        ASSERT_FALSE(fx.sw.replicas(members[i], members[j]))
            << fx.sw.node(members[i]).name << " and "
            << fx.sw.node(members[j]).name << " share a cluster";
      }
    }
  }
}

TEST(HierarchicalH1, BitwiseIdenticalAcrossWorkerCounts) {
  const Scaled fx(256);
  std::vector<ClusteringResult> results;
  for (const std::uint32_t threads : {1u, 4u, 8u}) {
    ClusteringOptions opts = fx.options(64);
    opts.threads = threads;
    ClusterEngine engine(fx.sw, opts);
    results.push_back(engine.h1_hierarchical());
  }
  expect_identical(results[0], results[1]);
  expect_identical(results[0], results[2]);
}

TEST(HierarchicalH1, SinglePartEqualsFlatH1) {
  const Scaled fx(128);
  ClusteringOptions opts = fx.options(24);
  opts.hierarchy_parts = 1;
  ClusterEngine hierarchical(fx.sw, opts);
  ClusterEngine flat(fx.sw, fx.options(24));
  expect_identical(hierarchical.h1_hierarchical(), flat.h1_greedy());
}

// The cross-part merge starts from the composed part clusterings: the
// engine's final partition with its cross-part "combine" steps undone. At
// target 8 the four parts' replica floors (3 each) push the local targets
// to 12 in total, so the cross-part merge has real work to do.
TEST(HierarchicalH1, CrossPartMergeMatchesScan) {
  for (const std::uint64_t seed : {1u, 2u, 42u}) {
    const Scaled fx(256, seed);
    ClusteringOptions opts = fx.options(8);
    opts.enforce_schedulability = true;
    ClusterEngine engine(fx.sw, opts);
    const ClusteringResult result = engine.h1_hierarchical();
    const std::vector<std::string> merges =
        reference::steps_starting_with(result.steps, "combine ");
    ASSERT_FALSE(merges.empty()) << "seed " << seed;
    expect_scan_reproduces(
        fx.sw, opts, reference::undo_merges(fx.sw, result.partition, merges),
        merges, result);
  }
}

TEST(FlatH1, MatchesScanAt128Processes) {
  const Scaled fx(128);
  const ClusteringOptions opts = fx.options(24);
  ClusterEngine engine(fx.sw, opts);
  const ClusteringResult result = engine.h1_greedy();
  expect_scan_reproduces(fx.sw, opts,
                         graph::Partition::identity(fx.sw.node_count()),
                         result.steps, result);
}

// The engine rejects the removed full-rebuild quotient mode.
TEST(FlatH1, RejectsTheRemovedRebuildQuotientMode) {
  const Scaled fx(16);
  ClusteringOptions opts = fx.options(8);
  EXPECT_NO_THROW((void)ClusterEngine(fx.sw, opts));
  opts.incremental_quotient = false;
  EXPECT_THROW((void)ClusterEngine(fx.sw, opts), InvalidArgument);
}

// Disconnected influence components force zero-mutual merges, the one spot
// where the engine leaves the heap for its fallback scan. The fallback must
// reproduce the scan reference's first-wins selection exactly.
TEST(FlatH1, ZeroMutualFallbackMatchesScan) {
  core::FcmHierarchy hierarchy;
  core::InfluenceModel influence;
  std::vector<FcmId> processes;
  for (int i = 0; i < 9; ++i) {
    core::Attributes attrs;
    attrs.criticality = 5;
    attrs.replication = 1;
    attrs.timing = core::TimingSpec::one_shot(
        Instant::epoch(), Instant::epoch() + Duration::millis(100),
        Duration::millis(2));
    const FcmId id = hierarchy.create("p" + std::to_string(i + 1),
                                      core::Level::kProcess, attrs);
    influence.add_member(id, hierarchy.get(id).name);
    processes.push_back(id);
  }
  // Three disconnected triangles: merging below 3 clusters requires
  // zero-mutual merges across components.
  for (int g = 0; g < 9; g += 3) {
    for (int k = 0; k < 3; ++k) {
      influence.set_direct(processes[g + k], processes[g + (k + 1) % 3],
                           Probability(0.3));
    }
  }
  const SwGraph sw = SwGraph::build(hierarchy, influence, processes);

  ClusteringOptions opts;
  opts.target_clusters = 2;
  opts.enforce_schedulability = false;
  opts.log_steps = true;
  ClusterEngine engine(sw, opts);
  const ClusteringResult result = engine.h1_greedy();
  expect_scan_reproduces(sw, opts, graph::Partition::identity(sw.node_count()),
                         result.steps, result);
}

TEST(HierarchicalH1, PlannerRunsHeuristicEndToEnd) {
  const auto instance = core::example98::make_instance();
  const HwGraph hw = HwGraph::complete(4);
  IntegrationPlanner planner(instance.hierarchy, instance.influence,
                             instance.processes, hw);
  const Plan plan =
      planner.plan(Heuristic::kH1Hierarchical, Approach::kAImportance);
  EXPECT_EQ(plan.clustering.partition.cluster_count, 4u);
  EXPECT_EQ(plan.assignment.hw_of.size(), 4u);
  EXPECT_STREQ(to_string(Heuristic::kH1Hierarchical), "H1-hierarchical");
}

// At a target of at least the SW node count H1 performs no merges. h1h
// must then accept the spare HW nodes exactly as h1 does, instead of
// failing a precondition: example98 (12 SW nodes) on 13 HW nodes, and
// synthetic-512-1 (771 SW nodes, 8 parts by default) on 800.
TEST(HierarchicalH1, SpareHwNodesPlanExactlyAsFlatH1) {
  const auto instance = core::example98::make_instance();
  const SwGraph example =
      SwGraph::build(instance.hierarchy, instance.influence,
                     instance.processes);
  const Scaled synthetic(512, 1);
  for (const auto& [sw, hw] :
       {std::pair<const SwGraph*, std::size_t>{&example, 13},
        {&synthetic.sw, 800}}) {
    ClusteringOptions opts;
    opts.target_clusters = hw;
    ClusterEngine flat(*sw, opts);
    ClusterEngine hierarchical(*sw, opts);
    const ClusteringResult expected = flat.h1_greedy();
    EXPECT_EQ(expected.partition.cluster_count, sw->node_count());
    expect_identical(hierarchical.h1_hierarchical(), expected);
  }

  // The rendered plans match too, apart from the heuristic's name.
  const auto plan_body = [](const std::string& payload) {
    const std::string text =
        serve::QueryEngine::one_shot(serve::protocol::Opcode::kMapping,
                                     payload)
            .text;
    return text.substr(text.find('\n') + 1);
  };
  for (const std::string model :
       {"model=example98 hw=13", "model=synthetic-512-1 hw=800"}) {
    const std::string flat = plan_body(model + " heuristic=h1");
    EXPECT_NE(flat.find("constraints: satisfied"), std::string::npos)
        << model;
    EXPECT_EQ(plan_body(model + " heuristic=h1h"), flat) << model;
  }
}

}  // namespace
}  // namespace fcm::mapping
