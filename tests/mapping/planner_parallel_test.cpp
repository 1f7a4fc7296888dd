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
// What best_plan records: every work counter it adds to, and every gauge it
// leaves behind. The executor's scheduling telemetry (exec.sched.*) is
// exempt, as in CI's metric compares, and so is planner.sweep_threads, which
// records the resolved lane count by design.
struct SweepMetrics {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
};

SweepMetrics sweep_metrics(std::uint32_t threads) {
  core::example98::Instance instance = make_instance();
  const HwGraph hw = HwGraph::complete(6);
  PlanOptions options;
  options.sweep_threads = threads;
  const IntegrationPlanner planner(instance.hierarchy, instance.influence,
                                   instance.processes, hw, options);
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::MetricsRegistry::global().reset();
  (void)planner.best_plan();
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::global().snapshot();
  obs::MetricsRegistry::global().reset();
  obs::set_enabled(was_enabled);
  SweepMetrics metrics;
  for (const auto& [name, value] : snapshot.counters) {
    if (!name.starts_with("exec.sched.")) metrics.counters[name] = value;
  }
  for (const auto& [name, value] : snapshot.gauges) {
    if (name.starts_with("exec.sched.") || name == "planner.sweep_threads") {
      continue;
    }
    metrics.gauges[name] = value;
  }
  return metrics;
}

// Counter totals and gauges are part of the determinism contract: one lane
// and four do the same work and leave the same model-derived values, on
// every run.
TEST(PlannerParallel, SweepCountersDoNotDependOnThreads) {
  const SweepMetrics sequential = sweep_metrics(1);
  EXPECT_EQ(sequential.counters.at("planner.candidates"), 7u);
  for (int run = 0; run < 4; ++run) {
    const SweepMetrics parallel = sweep_metrics(4);
    EXPECT_EQ(parallel.counters, sequential.counters) << "run " << run;
    EXPECT_EQ(parallel.gauges, sequential.gauges) << "run " << run;
  }
}
#endif

}  // namespace
}  // namespace fcm::mapping
