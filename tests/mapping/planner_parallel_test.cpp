// The best_plan heuristic sweep must pick the same plan, and count the same
// work, for every `sweep_threads` value: candidates are independent, and the
// winner is selected sequentially over the fixed heuristic order.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/error.h"
#include "core/example98.h"
#include "mapping/planner.h"
#include "obs/obs.h"

namespace fcm::mapping {
namespace {

using core::example98::make_instance;

Plan best_with_threads(std::uint32_t threads, std::size_t hw_nodes,
                       Approach approach) {
  core::example98::Instance instance = make_instance();
  const HwGraph hw = HwGraph::complete(hw_nodes);
  PlanOptions options;
  options.sweep_threads = threads;
  IntegrationPlanner planner(instance.hierarchy, instance.influence,
                             instance.processes, hw, options);
  return planner.best_plan(approach);
}

void expect_same_plan(const Plan& a, const Plan& b) {
  EXPECT_EQ(a.heuristic, b.heuristic);
  EXPECT_EQ(a.approach, b.approach);
  EXPECT_EQ(a.clustering.partition.cluster_of, b.clustering.partition.cluster_of);
  EXPECT_EQ(a.clustering.steps, b.clustering.steps);
  EXPECT_EQ(a.assignment.hw_of, b.assignment.hw_of);
  EXPECT_EQ(a.quality.score(), b.quality.score());  // bitwise, not approx
}

TEST(PlannerParallel, SweepThreadsDoNotChangeTheChosenPlan) {
  for (const Approach approach :
       {Approach::kAImportance, Approach::kBLexicographic}) {
    const Plan sequential = best_with_threads(1, 6, approach);
    for (const std::uint32_t threads : {2u, 4u, 8u, 0u}) {
      expect_same_plan(sequential, best_with_threads(threads, 6, approach));
    }
  }
}

TEST(PlannerParallel, TightPlatformAgreesAcrossThreadCounts) {
  // 4 HW nodes: several heuristics fail or produce infeasible candidates,
  // exercising the failure-collection path of the parallel sweep.
  const Plan sequential = best_with_threads(1, 4, Approach::kAImportance);
  for (const std::uint32_t threads : {2u, 4u}) {
    expect_same_plan(sequential,
                     best_with_threads(threads, 4, Approach::kAImportance));
  }
}

TEST(PlannerParallel, InfeasiblePlatformThrowsForAnyThreadCount) {
  for (const std::uint32_t threads : {1u, 2u, 4u}) {
    EXPECT_THROW(best_with_threads(threads, 2, Approach::kAImportance),
                 FcmError);
  }
}

#if FCM_OBS_ENABLED
// What best_plan adds to every work counter. The executor's scheduling
// telemetry (exec.sched.*) is exempt, as in CI's metric compares.
std::map<std::string, std::uint64_t> sweep_counters(std::uint32_t threads) {
  core::example98::Instance instance = make_instance();
  const HwGraph hw = HwGraph::complete(6);
  PlanOptions options;
  options.sweep_threads = threads;
  const IntegrationPlanner planner(instance.hierarchy, instance.influence,
                                   instance.processes, hw, options);
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const auto before = obs::MetricsRegistry::global().snapshot().counters;
  (void)planner.best_plan();
  const auto after = obs::MetricsRegistry::global().snapshot().counters;
  obs::set_enabled(was_enabled);
  std::map<std::string, std::uint64_t> delta;
  for (const auto& [name, value] : after) {
    if (name.starts_with("exec.sched.")) continue;
    const auto it = before.find(name);
    const std::uint64_t base = it == before.end() ? 0 : it->second;
    if (value != base) delta[name] = value - base;
  }
  return delta;
}

// Counter totals are part of the determinism contract: one lane and four
// do the same work, on every run.
TEST(PlannerParallel, SweepCountersDoNotDependOnThreads) {
  const std::map<std::string, std::uint64_t> sequential = sweep_counters(1);
  EXPECT_EQ(sequential.at("planner.candidates"), 7u);
  for (int run = 0; run < 4; ++run) {
    EXPECT_EQ(sweep_counters(4), sequential) << "run " << run;
  }
}
#endif

}  // namespace
}  // namespace fcm::mapping
