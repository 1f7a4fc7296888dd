// Tests for the H2 s-t cut variation (§5.4: "cut the graph using source
// and target nodes").
#include <gtest/gtest.h>

#include "common/error.h"
#include "core/example98.h"
#include "mapping/planner.h"
#include "sched/edf.h"

namespace fcm::mapping {
namespace {

using core::example98::make_instance;

struct Fixture {
  core::example98::Instance instance = make_instance();
  SwGraph sw = SwGraph::build(instance.hierarchy, instance.influence,
                              instance.processes);

  graph::NodeIndex find(const std::string& name) const {
    for (graph::NodeIndex v = 0; v < sw.node_count(); ++v) {
      if (sw.node(v).name == name) return v;
    }
    throw NotFound(name);
  }
};

void expect_valid(const ClusteringResult& result, const SwGraph& sw,
                  std::size_t target) {
  EXPECT_EQ(result.partition.cluster_count, target);
  for (const auto& members : result.partition.groups()) {
    std::vector<sched::Job> jobs;
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (std::size_t j = i + 1; j < members.size(); ++j) {
        EXPECT_FALSE(sw.replicas(members[i], members[j]));
      }
      if (sw.has_timing(members[i])) jobs.push_back(sw.job_of(members[i]));
    }
    EXPECT_TRUE(sched::edf_feasible(jobs));
  }
}

TEST(H2StCut, DefaultEndpointsProduceValidClustering) {
  Fixture fx;
  ClusteringOptions options;
  options.target_clusters = 6;
  options.log_steps = true;  // the first step names the cut
  ClusterEngine engine(fx.sw, options);
  const ClusteringResult result = engine.h2_st_cut();
  expect_valid(result, fx.sw, 6);
  ASSERT_FALSE(result.steps.empty());
  EXPECT_NE(result.steps[0].find("s-t cut"), std::string::npos);
}

TEST(H2StCut, ExplicitEndpointsAreSeparated) {
  Fixture fx;
  ClusteringOptions options;
  options.target_clusters = 6;
  ClusterEngine engine(fx.sw, options);
  const graph::NodeIndex p4 = fx.find("p4");
  const graph::NodeIndex p6 = fx.find("p6");
  const ClusteringResult result = engine.h2_st_cut(p4, p6);
  expect_valid(result, fx.sw, 6);
  EXPECT_NE(result.partition.cluster_of[p4],
            result.partition.cluster_of[p6]);
}

TEST(H2StCut, SeparatingReplicasAlwaysWorks) {
  // Replicas are linked with weight-0 edges, so the s-t cut between p1a
  // and p1b is free, and the constraint machinery keeps them apart anyway.
  Fixture fx;
  ClusteringOptions options;
  options.target_clusters = 6;
  ClusterEngine engine(fx.sw, options);
  const ClusteringResult result =
      engine.h2_st_cut(fx.find("p1a"), fx.find("p1b"));
  expect_valid(result, fx.sw, 6);
}

TEST(H2StCut, RejectsEqualEndpoints) {
  Fixture fx;
  ClusteringOptions options;
  options.target_clusters = 6;
  ClusterEngine engine(fx.sw, options);
  EXPECT_THROW(engine.h2_st_cut(fx.find("p4"), fx.find("p4")),
               InvalidArgument);
}

TEST(H2StCut, PlannerIntegration) {
  Fixture fx;
  const HwGraph hw = HwGraph::complete(6);
  IntegrationPlanner planner(fx.instance.hierarchy, fx.instance.influence,
                             fx.instance.processes, hw);
  const Plan plan = planner.plan(Heuristic::kH2StCut,
                                 Approach::kAImportance);
  EXPECT_TRUE(plan.quality.constraints_satisfied());
  EXPECT_STREQ(to_string(Heuristic::kH2StCut), "H2-st-cut");
}

}  // namespace
}  // namespace fcm::mapping
