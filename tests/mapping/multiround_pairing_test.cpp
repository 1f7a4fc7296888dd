// Multi-round criticality pairing: §6.2's "In the next stage, the sets of
// processes can be ordered based on a summary criticality ... The previous
// steps can then be repeated until a desired number of nodes is obtained."
#include <gtest/gtest.h>

#include "mapping/clustering.h"
#include "sched/edf.h"

namespace fcm::mapping {
namespace {

struct BigSystem {
  core::FcmHierarchy hierarchy;
  core::InfluenceModel influence;
  std::vector<FcmId> processes;
};

// 16 simplex processes with distinct criticalities and generous timing.
BigSystem sixteen_processes() {
  BigSystem sys;
  for (int i = 1; i <= 16; ++i) {
    core::Attributes attrs;
    attrs.criticality = 17 - i;  // p1 most critical
    attrs.timing = core::TimingSpec::one_shot(
        Instant::epoch() + Duration::millis(4 * i),
        Instant::epoch() + Duration::millis(400 + 4 * i),
        Duration::millis(3));
    const FcmId id = sys.hierarchy.create("q" + std::to_string(i),
                                          core::Level::kProcess, attrs);
    sys.influence.add_member(id, sys.hierarchy.get(id).name);
    sys.processes.push_back(id);
  }
  // A ring of modest influence keeps the quotient connected.
  for (int i = 0; i < 16; ++i) {
    sys.influence.set_direct(sys.processes[static_cast<std::size_t>(i)],
                             sys.processes[static_cast<std::size_t>((i + 1) % 16)],
                             Probability(0.1));
  }
  return sys;
}

TEST(MultiRoundPairing, ReachesTargetThroughTwoRounds) {
  const BigSystem sys = sixteen_processes();
  const SwGraph sw =
      SwGraph::build(sys.hierarchy, sys.influence, sys.processes);
  ClusteringOptions options;
  options.target_clusters = 4;  // 16 -> 8 (round 1) -> 4 (round 2)
  options.log_steps = true;     // the rounds are read from the step log
  ClusterEngine engine(sw, options);
  const ClusteringResult result = engine.criticality_pairing();
  EXPECT_EQ(result.partition.cluster_count, 4u);

  // Steps must mention both rounds.
  const bool has_round2 =
      std::any_of(result.steps.begin(), result.steps.end(),
                  [](const std::string& s) {
                    return s.find("round 2") != std::string::npos;
                  });
  EXPECT_TRUE(has_round2);

  // Round 1 pairs extremes: q1 with q16.
  const bool q1_with_q16 = std::any_of(
      result.steps.begin(), result.steps.end(), [](const std::string& s) {
        return s.find("pair q1 ") != std::string::npos &&
               s.find("q16") != std::string::npos;
      });
  EXPECT_TRUE(q1_with_q16);

  // Criticality stays balanced: no cluster hoards the top processes.
  for (const auto& members : result.partition.groups()) {
    int high = 0;
    for (const graph::NodeIndex v : members) {
      if (sw.node(v).attributes.criticality >= 13) ++high;
    }
    EXPECT_LE(high, 1) << "a cluster holds more than one top-4 process";
  }
}

TEST(MultiRoundPairing, OddTargetStopsMidRound) {
  const BigSystem sys = sixteen_processes();
  const SwGraph sw =
      SwGraph::build(sys.hierarchy, sys.influence, sys.processes);
  ClusteringOptions options;
  options.target_clusters = 11;  // 16 -> 11 needs only 5 of 8 round-1 pairs
  ClusterEngine engine(sw, options);
  const ClusteringResult result = engine.criticality_pairing();
  EXPECT_EQ(result.partition.cluster_count, 11u);
}

TEST(MultiRoundPairing, SchedulabilityStillEnforcedAcrossRounds) {
  const BigSystem sys = sixteen_processes();
  const SwGraph sw =
      SwGraph::build(sys.hierarchy, sys.influence, sys.processes);
  ClusteringOptions options;
  options.target_clusters = 2;  // aggressive: 8 processes per cluster
  ClusterEngine engine(sw, options);
  const ClusteringResult result = engine.criticality_pairing();
  EXPECT_EQ(result.partition.cluster_count, 2u);
  for (const auto& members : result.partition.groups()) {
    std::vector<sched::Job> jobs;
    for (const graph::NodeIndex v : members) {
      jobs.push_back(sw.job_of(v));
    }
    EXPECT_TRUE(sched::edf_feasible(jobs));
  }
}

}  // namespace
}  // namespace fcm::mapping
