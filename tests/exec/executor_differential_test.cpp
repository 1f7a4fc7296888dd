// Differential gate for the executor: every subsystem that runs on it —
// Monte Carlo dependability, the planner sweep, the influence estimator,
// and the resilience campaign — must produce bit-identical output on the
// persistent work-stealing pool for threads in {1, 3, 8}. The reference is
// a threads = 1 run, which takes the serial in-line path: the same
// single-lane evaluation the retired per-call engine used, with no pool
// involved.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/example98.h"
#include "dependability/montecarlo.h"
#include "mapping/planner.h"
#include "resilience/campaign.h"
#include "resilience/report.h"
#include "resilience/scenario.h"
#include "sim/influence_estimator.h"

namespace fcm::exec {
namespace {

constexpr std::uint32_t kThreadCounts[] = {1, 3, 8};

void expect_bitwise(double a, double b, const char* what) {
  EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0)
      << what << ": " << a << " vs " << b;
}

// --- Monte Carlo dependability -------------------------------------------

dependability::DependabilityReport run_montecarlo(std::uint32_t threads) {
  core::example98::Instance instance = core::example98::make_instance();
  const mapping::SwGraph sw = mapping::SwGraph::build(
      instance.hierarchy, instance.influence, instance.processes);
  const mapping::HwGraph hw = mapping::HwGraph::complete(6);
  mapping::ClusteringOptions copts;
  copts.target_clusters = 6;
  mapping::ClusterEngine engine(sw, copts);
  const mapping::ClusteringResult clustering = engine.h1_greedy();
  const mapping::Assignment assignment =
      mapping::assign_by_importance(sw, clustering, hw);
  dependability::MissionModel mission;
  mission.hw_failure = Probability(0.12);
  mission.sw_fault = Probability(0.03);
  mission.propagate = true;
  mission.trials = 6'000;
  mission.threads = threads;
  return dependability::evaluate_mapping(sw, clustering, assignment, hw,
                                         mission, 77);
}

TEST(ExecutorDifferential, MonteCarloReportsMatchTheRetiredEngine) {
  const dependability::DependabilityReport reference = run_montecarlo(1);
  for (const std::uint32_t threads : kThreadCounts) {
    const dependability::DependabilityReport report =
        run_montecarlo(threads);
    expect_bitwise(report.system_survival, reference.system_survival,
                   "system_survival");
    expect_bitwise(report.critical_survival, reference.critical_survival,
                   "critical_survival");
    expect_bitwise(report.expected_criticality_loss,
                   reference.expected_criticality_loss,
                   "expected_criticality_loss");
    ASSERT_EQ(report.process_survival.size(),
              reference.process_survival.size());
    for (std::size_t p = 0; p < report.process_survival.size(); ++p) {
      expect_bitwise(report.process_survival[p],
                     reference.process_survival[p], "process_survival");
    }
  }
}

// --- Planner heuristic sweep ---------------------------------------------

mapping::Plan run_sweep(std::uint32_t threads) {
  core::example98::Instance instance = core::example98::make_instance();
  const mapping::HwGraph hw = mapping::HwGraph::complete(6);
  mapping::PlanOptions options;
  options.sweep_threads = threads;
  mapping::IntegrationPlanner planner(instance.hierarchy, instance.influence,
                                      instance.processes, hw, options);
  return planner.best_plan();
}

TEST(ExecutorDifferential, PlannerSweepMatchesTheRetiredEngine) {
  const mapping::Plan reference = run_sweep(1);
  for (const std::uint32_t threads : kThreadCounts) {
    const mapping::Plan plan = run_sweep(threads);
    EXPECT_EQ(plan.heuristic, reference.heuristic);
    EXPECT_EQ(plan.clustering.partition.cluster_of,
              reference.clustering.partition.cluster_of);
    EXPECT_EQ(plan.assignment.hw_of, reference.assignment.hw_of);
    expect_bitwise(plan.quality.score(), reference.quality.score(),
                   "plan score");
  }
}

// --- Influence estimator --------------------------------------------------

std::vector<sim::PairEstimate> run_estimator(std::uint32_t threads) {
  sim::PlatformSpec spec;
  const ProcessorId cpu = spec.add_processor("cpu0");
  const RegionId shared = spec.add_region("shared", Probability(0.7));
  sim::TaskSpec producer;
  producer.name = "producer";
  producer.processor = cpu;
  producer.period = Duration::millis(10);
  producer.deadline = Duration::millis(10);
  producer.cost = Duration::millis(1);
  producer.writes = {shared};
  spec.add_task(producer);
  sim::TaskSpec consumer;
  consumer.name = "consumer";
  consumer.processor = cpu;
  consumer.period = Duration::millis(10);
  consumer.deadline = Duration::millis(10);
  consumer.cost = Duration::millis(1);
  consumer.offset = Duration::millis(5);
  consumer.reads = {shared};
  consumer.manifestation = Probability(0.6);
  spec.add_task(consumer);

  sim::InfluenceEstimator estimator(spec, 7);
  sim::EstimatorOptions options;
  options.trials = 64;
  options.threads = threads;
  return estimator.estimate_from(0, options);
}

TEST(ExecutorDifferential, InfluenceEstimatesMatchTheRetiredEngine) {
  const std::vector<sim::PairEstimate> reference = run_estimator(1);
  for (const std::uint32_t threads : kThreadCounts) {
    const std::vector<sim::PairEstimate> estimates = run_estimator(threads);
    ASSERT_EQ(estimates.size(), reference.size());
    for (std::size_t t = 0; t < estimates.size(); ++t) {
      EXPECT_EQ(estimates[t].transmitted, reference[t].transmitted);
      EXPECT_EQ(estimates[t].manifested, reference[t].manifested);
    }
  }
}

// --- Resilience campaign --------------------------------------------------

std::string run_campaign_json(std::uint32_t threads) {
  core::example98::Instance instance = core::example98::make_instance();
  const mapping::HwGraph hw =
      mapping::HwGraph::complete(core::example98::kHwNodes);
  mapping::IntegrationPlanner planner(instance.hierarchy, instance.influence,
                                      instance.processes, hw);
  const mapping::Plan plan = planner.best_plan();
  const mapping::SwGraph& sw = planner.sw_graph();
  const std::vector<resilience::Scenario> grid = resilience::standard_grid(
      sw, plan.clustering.partition, plan.assignment, hw);
  resilience::CampaignOptions options;
  options.trials = 48;
  options.threads = threads;
  return resilience::to_json(resilience::run_campaign(
      sw, plan.clustering.partition, plan.assignment, hw, grid, 2026,
      options));
}

TEST(ExecutorDifferential, CampaignJsonMatchesTheRetiredEngine) {
  const std::string reference = run_campaign_json(1);
  for (const std::uint32_t threads : kThreadCounts) {
    EXPECT_EQ(run_campaign_json(threads), reference)
        << "threads " << threads;
  }
}

}  // namespace
}  // namespace fcm::exec
