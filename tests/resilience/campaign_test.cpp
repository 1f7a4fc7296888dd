#include "resilience/campaign.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/example98.h"
#include "mapping/planner.h"
#include "resilience/report.h"

namespace fcm::resilience {
namespace {

struct Mapping {
  core::example98::Instance instance;
  mapping::HwGraph hw;
  mapping::SwGraph sw;
  mapping::Plan plan;
};

const Mapping& mapping98() {
  static const Mapping m = [] {
    Mapping built;
    built.instance = core::example98::make_instance();
    built.hw = mapping::HwGraph::complete(core::example98::kHwNodes);
    mapping::IntegrationPlanner planner(built.instance.hierarchy,
                                        built.instance.influence,
                                        built.instance.processes, built.hw);
    built.plan = planner.best_plan();
    built.sw = planner.sw_graph();
    return built;
  }();
  return m;
}

HwNodeId host_of(const Mapping& m, graph::NodeIndex v) {
  return m.plan.assignment.host(m.plan.clustering.partition.cluster_of[v]);
}

/// Replica nodes of one process, ascending.
std::vector<graph::NodeIndex> replicas_of(const Mapping& m, FcmId origin) {
  std::vector<graph::NodeIndex> nodes;
  for (graph::NodeIndex v = 0; v < m.sw.node_count(); ++v) {
    if (m.sw.node(v).origin == origin) nodes.push_back(v);
  }
  return nodes;
}

Scenario crash_of(const Mapping& m, graph::NodeIndex v) {
  ScenarioEvent event;
  event.kind = ScenarioEventKind::kProcessorCrash;
  event.hw_node = host_of(m, v);
  event.at = Duration::millis(41);
  return {"crash-host-of-" + m.sw.node(v).name, {event}};
}

Scenario burst_on(const Mapping& m, graph::NodeIndex v) {
  ScenarioEvent event;
  event.kind = ScenarioEventKind::kTaskFaultBurst;
  event.task = v;
  event.activation = 0;
  event.burst = 3;
  return {"burst-" + m.sw.node(v).name, {event}};
}

CampaignOptions small_options(std::uint32_t threads) {
  CampaignOptions options;
  options.trials = 32;
  options.trials_per_block = 8;
  options.threads = threads;
  return options;
}

ResilienceReport run_small(const std::vector<Scenario>& scenarios,
                           std::uint32_t threads, std::uint64_t seed = 7) {
  const Mapping& m = mapping98();
  return run_campaign(m.sw, m.plan.clustering.partition, m.plan.assignment,
                      m.hw, scenarios, seed, small_options(threads));
}

const ProcessOutcome* outcome_of(const ScenarioResult& result,
                                 const std::string& name) {
  const auto it = std::find_if(
      result.processes.begin(), result.processes.end(),
      [&name](const ProcessOutcome& p) { return p.name == name; });
  return it == result.processes.end() ? nullptr : &*it;
}

TEST(Campaign, ReportIsBitwiseIdenticalAcrossThreadCounts) {
  const Mapping& m = mapping98();
  const FcmId p1 = m.instance.process(1);
  const std::vector<Scenario> grid{crash_of(m, replicas_of(m, p1)[0]),
                                   burst_on(m, replicas_of(m, p1)[0])};
  const std::string json1 = to_json(run_small(grid, 1));
  const std::string json2 = to_json(run_small(grid, 2));
  const std::string json5 = to_json(run_small(grid, 5));
  EXPECT_EQ(json1, json2);
  EXPECT_EQ(json1, json5);
}

TEST(Campaign, RemainderBlockFoldsIdenticallyAcrossThreadCounts) {
  // Regression audit for trials % trials_per_block != 0: 97 trials in
  // blocks of 16 leave a 1-trial remainder block. Its substream index and
  // its fold position must match the single-thread reference exactly —
  // a remainder block mis-weighted or re-seeded shows up as a byte diff.
  const Mapping& m = mapping98();
  const FcmId p1 = m.instance.process(1);
  const std::vector<Scenario> grid{crash_of(m, replicas_of(m, p1)[0]),
                                   burst_on(m, replicas_of(m, p1)[0])};
  CampaignOptions options;
  options.trials = 97;
  options.trials_per_block = 16;
  const auto run_with = [&](std::uint32_t threads) {
    options.threads = threads;
    return run_campaign(m.sw, m.plan.clustering.partition, m.plan.assignment,
                        m.hw, grid, /*seed=*/2026, options);
  };
  const ResilienceReport reference = run_with(1);
  const std::string json1 = to_json(reference);
  EXPECT_EQ(json1, to_json(run_with(4)));
  EXPECT_EQ(json1, to_json(run_with(8)));
  // 97 trials in blocks of 16 = 7 blocks per scenario, 14 total.
  EXPECT_EQ(reference.blocks, 14u);
  for (const ScenarioResult& scenario : reference.scenarios) {
    EXPECT_EQ(scenario.trials, 97u);
    // Survival fractions count out of 97 — a remainder block dropped or
    // double-counted would leave a non-integer trial tally behind.
    for (const ProcessOutcome& p : scenario.processes) {
      const double count = p.survival * 97.0;
      EXPECT_NEAR(count, std::round(count), 1e-9) << p.name;
    }
  }
}

TEST(Campaign, MaximalBlockSizeIsOneBlockPerScenario) {
  // A block size of UINT32_MAX must not wrap the block arithmetic: each
  // scenario runs one block from the same substream as with a block size
  // equal to the trial count, so only the trials_per_block field differs.
  const Mapping& m = mapping98();
  const FcmId p1 = m.instance.process(1);
  const std::vector<Scenario> grid{crash_of(m, replicas_of(m, p1)[0]),
                                   burst_on(m, replicas_of(m, p1)[0])};
  CampaignOptions options;
  options.trials = 24;
  const auto run_with = [&](std::uint32_t block_size) {
    options.trials_per_block = block_size;
    return run_campaign(m.sw, m.plan.clustering.partition, m.plan.assignment,
                        m.hw, grid, /*seed=*/2026, options);
  };
  const ResilienceReport reference = run_with(24);
  ResilienceReport huge = run_with(UINT32_MAX);
  EXPECT_EQ(reference.blocks, grid.size());
  EXPECT_EQ(huge.blocks, grid.size());
  EXPECT_EQ(huge.trials_per_block, UINT32_MAX);
  huge.trials_per_block = reference.trials_per_block;
  EXPECT_EQ(to_json(reference), to_json(huge));
}

TEST(Campaign, SameSeedReproducesExactly) {
  const Mapping& m = mapping98();
  const FcmId p1 = m.instance.process(1);
  const std::vector<Scenario> grid{burst_on(m, replicas_of(m, p1)[0])};
  EXPECT_EQ(to_json(run_small(grid, 3, 11)), to_json(run_small(grid, 3, 11)));
}

TEST(Campaign, ReplicatedCriticalProcessSurvivesItsHostCrash) {
  // The acceptance criterion of the replication machinery: killing one
  // processor hosting a replica of a replicated critical process must not
  // take the process out of service — the surviving replicas deliver.
  const Mapping& m = mapping98();
  const FcmId p1 = m.instance.process(1);
  const std::vector<graph::NodeIndex> replicas = replicas_of(m, p1);
  ASSERT_GE(replicas.size(), 3u);  // p1 runs in TMR per Table 1
  const ResilienceReport report =
      run_small({crash_of(m, replicas[0])}, 2);
  ASSERT_EQ(report.scenarios.size(), 1u);
  const ScenarioResult& result = report.scenarios[0];

  const ProcessOutcome* p1_outcome = outcome_of(result, "p1");
  ASSERT_NE(p1_outcome, nullptr);
  EXPECT_DOUBLE_EQ(p1_outcome->survival, 1.0);
  EXPECT_EQ(p1_outcome->replication, 3);

  EXPECT_TRUE(result.replan.attempted);
  EXPECT_TRUE(result.replan.feasible);
  const auto& lost = result.replan.lost_levels;
  EXPECT_EQ(std::find(lost.begin(), lost.end(), p1_outcome->criticality),
            lost.end());
}

TEST(Campaign, SimplexProcessDiesWithItsHost) {
  const Mapping& m = mapping98();
  // Find a simplex process (Table 1 maps p4..p8 without replication).
  FcmId simplex;
  graph::NodeIndex node = 0;
  for (const FcmId origin : m.instance.processes) {
    const std::vector<graph::NodeIndex> replicas = replicas_of(m, origin);
    if (replicas.size() == 1) {
      simplex = origin;
      node = replicas[0];
      break;
    }
  }
  ASSERT_TRUE(simplex.valid());
  const std::string name = m.sw.node(node).name;

  const ResilienceReport report = run_small({crash_of(m, node)}, 2);
  const ScenarioResult& result = report.scenarios[0];
  const ProcessOutcome* outcome = outcome_of(result, name);
  ASSERT_NE(outcome, nullptr);
  EXPECT_DOUBLE_EQ(outcome->survival, 0.0);
  // The replanner cannot resurrect a dead simplex: its level reports lost.
  const auto& lost = result.replan.lost_levels;
  EXPECT_NE(std::find(lost.begin(), lost.end(), outcome->criticality),
            lost.end());
}

TEST(Campaign, BurstScenarioDrivesRecoveryMechanisms) {
  const Mapping& m = mapping98();
  const FcmId p1 = m.instance.process(1);
  const ResilienceReport report =
      run_small({burst_on(m, replicas_of(m, p1)[0])}, 2);
  const ScenarioResult& result = report.scenarios[0];
  EXPECT_EQ(result.injections, result.trials);  // one event per trial
  EXPECT_GT(result.task_failures, 0u);
  EXPECT_GT(result.recoveries_attempted, 0u);
  EXPECT_LE(result.recoveries_succeeded, result.recoveries_attempted);
  EXPECT_FALSE(result.replan.attempted);  // no HW was lost
}

TEST(Campaign, WorstCriticalSurvivalIsTheMinimumOverScenarios) {
  const Mapping& m = mapping98();
  const FcmId p1 = m.instance.process(1);
  const std::vector<Scenario> grid{crash_of(m, replicas_of(m, p1)[0]),
                                   burst_on(m, replicas_of(m, p1)[0])};
  const ResilienceReport report = run_small(grid, 1);
  double expected = 1.0;
  for (const ScenarioResult& s : report.scenarios) {
    expected = std::min(expected, s.critical_survival);
  }
  EXPECT_DOUBLE_EQ(report.worst_critical_survival(), expected);
  EXPECT_DOUBLE_EQ(ResilienceReport{}.worst_critical_survival(), 1.0);
}

}  // namespace
}  // namespace fcm::resilience
