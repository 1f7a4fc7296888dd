#include "dependability/montecarlo.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/error.h"
#include "core/example98.h"
#include "dependability/reliability.h"

namespace fcm::dependability {
namespace {

using core::example98::make_instance;

struct Fixture {
  core::example98::Instance instance = make_instance();
  mapping::SwGraph sw = mapping::SwGraph::build(
      instance.hierarchy, instance.influence, instance.processes);
  mapping::HwGraph hw = mapping::HwGraph::complete(6);

  struct Mapped {
    mapping::ClusteringResult clustering;
    mapping::Assignment assignment;
  };

  Mapped map_with_h1() {
    mapping::ClusteringOptions options;
    options.target_clusters = 6;
    mapping::ClusterEngine engine(sw, options);
    Mapped m;
    m.clustering = engine.h1_greedy();
    m.assignment = mapping::assign_by_importance(sw, m.clustering, hw);
    return m;
  }

  Mapped map_with_criticality() {
    mapping::ClusteringOptions options;
    options.target_clusters = 6;
    mapping::ClusterEngine engine(sw, options);
    Mapped m;
    m.clustering = engine.criticality_pairing();
    m.assignment = mapping::assign_by_importance(sw, m.clustering, hw);
    return m;
  }
};

TEST(MonteCarlo, NoFailuresMeansPerfectSurvival) {
  Fixture fx;
  const auto m = fx.map_with_h1();
  MissionModel mission;
  mission.hw_failure = Probability::zero();
  mission.trials = 1000;
  const DependabilityReport report = evaluate_mapping(
      fx.sw, m.clustering, m.assignment, fx.hw, mission, 1);
  EXPECT_DOUBLE_EQ(report.system_survival, 1.0);
  EXPECT_DOUBLE_EQ(report.critical_survival, 1.0);
  EXPECT_DOUBLE_EQ(report.expected_criticality_loss, 0.0);
}

TEST(MonteCarlo, TmrProcessMatchesClosedFormWithoutPropagation) {
  // With HW failures only and no propagation, p1's survival must match the
  // TMR closed form: replicas sit on three independent nodes.
  Fixture fx;
  const auto m = fx.map_with_criticality();  // p1 replicas well separated
  MissionModel mission;
  mission.hw_failure = Probability(0.2);
  mission.propagate = false;
  mission.trials = 60'000;
  const DependabilityReport report = evaluate_mapping(
      fx.sw, m.clustering, m.assignment, fx.hw, mission, 2);
  // Process order follows SW node construction order: p1 is index 0.
  const double expected = tmr_reliability(0.8);
  EXPECT_NEAR(report.process_survival[0], expected, 0.01);
}

TEST(MonteCarlo, DuplexProcessMatchesClosedForm) {
  Fixture fx;
  const auto m = fx.map_with_criticality();
  MissionModel mission;
  mission.hw_failure = Probability(0.3);
  mission.propagate = false;
  mission.trials = 60'000;
  const DependabilityReport report = evaluate_mapping(
      fx.sw, m.clustering, m.assignment, fx.hw, mission, 3);
  // p2 (index 1) is duplex: survives unless both hosts fail.
  EXPECT_NEAR(report.process_survival[1], 1.0 - 0.09, 0.01);
}

TEST(MonteCarlo, SimplexProcessMatchesHostReliability) {
  Fixture fx;
  const auto m = fx.map_with_h1();
  MissionModel mission;
  mission.hw_failure = Probability(0.25);
  mission.propagate = false;
  mission.trials = 60'000;
  const DependabilityReport report = evaluate_mapping(
      fx.sw, m.clustering, m.assignment, fx.hw, mission, 4);
  // p8 (index 7) is simplex.
  EXPECT_NEAR(report.process_survival[7], 0.75, 0.01);
}

TEST(MonteCarlo, PropagationReducesSurvival) {
  Fixture fx;
  const auto m = fx.map_with_h1();
  MissionModel with, without;
  with.hw_failure = without.hw_failure = Probability(0.1);
  with.sw_fault = without.sw_fault = Probability(0.05);
  with.propagate = true;
  without.propagate = false;
  with.trials = without.trials = 30'000;
  const DependabilityReport r_with = evaluate_mapping(
      fx.sw, m.clustering, m.assignment, fx.hw, with, 5);
  const DependabilityReport r_without = evaluate_mapping(
      fx.sw, m.clustering, m.assignment, fx.hw, without, 5);
  EXPECT_LT(r_with.system_survival, r_without.system_survival + 1e-9);
  EXPECT_GE(r_with.expected_criticality_loss,
            r_without.expected_criticality_loss - 1e-9);
}

TEST(MonteCarlo, CriticalityPairingSpreadsCriticalityAcrossHwFaults) {
  // The §6.2 motivation: "Minimizing the number of critical processes
  // scheduled on one processor also minimizes the number of processes lost
  // due to such a HW fault." H1 piles p1+p2+p3 onto one cluster; the
  // criticality pairing spreads them, so the worst single HW fault exposes
  // strictly less criticality.
  Fixture fx;
  const auto h1 = fx.map_with_h1();
  const auto crit = fx.map_with_criticality();
  auto max_cluster_criticality = [&](const mapping::ClusteringResult& c) {
    std::vector<double> crit_of(c.partition.cluster_count, 0.0);
    for (graph::NodeIndex v = 0; v < fx.sw.node_count(); ++v) {
      crit_of[c.partition.cluster_of[v]] +=
          fx.sw.node(v).attributes.criticality;
    }
    return *std::max_element(crit_of.begin(), crit_of.end());
  };
  EXPECT_LT(max_cluster_criticality(crit.clustering),
            max_cluster_criticality(h1.clustering));

  // The *expected* criticality loss under independent HW faults without
  // propagation is a function of replication alone (replicas always land
  // on distinct nodes), so both mappings' estimates must agree with the
  // same closed form: sum over processes of crit * P(lost | degree), where
  // simplex loses at q, duplex at q^2 and TMR at 3q^2(1-q) + q^3.
  const double q = 0.15;
  double closed_form = 0.0;
  for (const auto& spec : core::example98::table1()) {
    double p_lost = 0.0;
    switch (spec.replication) {
      case 1: p_lost = q; break;
      case 2: p_lost = q * q; break;
      default: p_lost = 3.0 * q * q * (1.0 - q) + q * q * q; break;
    }
    closed_form += spec.criticality * p_lost;
  }
  MissionModel mission;
  mission.hw_failure = Probability(q);
  mission.propagate = false;
  mission.trials = 40'000;
  const DependabilityReport r_h1 = evaluate_mapping(
      fx.sw, h1.clustering, h1.assignment, fx.hw, mission, 6);
  const DependabilityReport r_crit = evaluate_mapping(
      fx.sw, crit.clustering, crit.assignment, fx.hw, mission, 6);
  EXPECT_NEAR(r_h1.expected_criticality_loss, closed_form, 0.1);
  EXPECT_NEAR(r_crit.expected_criticality_loss, closed_form, 0.1);
}

TEST(MonteCarlo, DeterministicForSeed) {
  Fixture fx;
  const auto m = fx.map_with_h1();
  MissionModel mission;
  mission.hw_failure = Probability(0.1);
  mission.trials = 2000;
  const DependabilityReport a = evaluate_mapping(
      fx.sw, m.clustering, m.assignment, fx.hw, mission, 42);
  const DependabilityReport b = evaluate_mapping(
      fx.sw, m.clustering, m.assignment, fx.hw, mission, 42);
  EXPECT_DOUBLE_EQ(a.system_survival, b.system_survival);
  EXPECT_DOUBLE_EQ(a.expected_criticality_loss,
                   b.expected_criticality_loss);
}

TEST(MonteCarlo, AllNodesFailingLosesEverything) {
  Fixture fx;
  const auto m = fx.map_with_h1();
  MissionModel mission;
  mission.hw_failure = Probability::one();
  mission.trials = 100;
  const DependabilityReport report = evaluate_mapping(
      fx.sw, m.clustering, m.assignment, fx.hw, mission, 7);
  EXPECT_DOUBLE_EQ(report.system_survival, 0.0);
  double total_criticality = 0.0;
  for (const auto& spec : core::example98::table1()) {
    total_criticality += spec.criticality;
  }
  EXPECT_DOUBLE_EQ(report.expected_criticality_loss, total_criticality);
}

// A mapping must fit its SW graph and platform; otherwise the trial would
// read past its per-node host and failure tables.
TEST(MonteCarlo, MappingThatDoesNotFitItsPlatformIsRejected) {
  Fixture fx;
  const auto m = fx.map_with_h1();
  MissionModel mission;
  mission.hw_failure = Probability(0.1);
  mission.trials = 100;

  mapping::Assignment shifted = m.assignment;
  for (HwNodeId& host : shifted.hw_of) host = HwNodeId(host.value() + 40);
  EXPECT_THROW(evaluate_mapping(fx.sw, m.clustering, shifted,
                                mapping::HwGraph::complete(2), mission, 7),
               InvalidArgument);

  mapping::ClusteringResult truncated = m.clustering;
  truncated.partition.cluster_of.resize(3);
  EXPECT_THROW(evaluate_mapping(fx.sw, truncated, m.assignment, fx.hw,
                                mission, 7),
               InvalidArgument);
}

}  // namespace
}  // namespace fcm::dependability
