#include "mapping/clustering.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/error.h"
#include "core/example98.h"
#include "sched/edf.h"

namespace fcm::mapping {
namespace {

using core::example98::make_instance;

struct Fixture {
  core::example98::Instance instance = make_instance();
  SwGraph sw = SwGraph::build(instance.hierarchy, instance.influence,
                              instance.processes);

  ClusterEngine engine(std::size_t target) {
    ClusteringOptions options;
    options.target_clusters = target;
    options.log_steps = true;  // several tests read the step log
    return ClusterEngine(sw, options);
  }
};

// Canonical form for comparing clusterings: sorted members, sorted clusters.
std::set<std::set<std::string>> canon(const ClusteringResult& result,
                                      const SwGraph& sw) {
  std::set<std::set<std::string>> out;
  for (const auto& names : result.cluster_names(sw)) {
    out.insert(std::set<std::string>(names.begin(), names.end()));
  }
  return out;
}

void expect_valid(const ClusteringResult& result, const SwGraph& sw,
                  std::size_t target) {
  EXPECT_EQ(result.partition.cluster_count, target);
  result.partition.validate();
  // Replica anti-affinity.
  const auto groups = result.partition.groups();
  for (const auto& members : groups) {
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (std::size_t j = i + 1; j < members.size(); ++j) {
        EXPECT_FALSE(sw.replicas(members[i], members[j]))
            << sw.node(members[i]).name << " with "
            << sw.node(members[j]).name;
      }
    }
  }
  // Schedulability of every cluster.
  for (const auto& members : groups) {
    std::vector<sched::Job> jobs;
    for (const graph::NodeIndex v : members) {
      if (sw.has_timing(v)) jobs.push_back(sw.job_of(v));
    }
    EXPECT_TRUE(sched::edf_feasible(jobs));
  }
}

TEST(H1Greedy, ReproducesSection61Clusters) {
  // §6.1 / Figs. 5-6: H1 on the replicated graph down to 6 HW nodes.
  Fixture fx;
  auto engine = fx.engine(core::example98::kHwNodes);
  const ClusteringResult result = engine.h1_greedy();
  expect_valid(result, fx.sw, 6);
  const auto clusters = canon(result, fx.sw);
  const std::set<std::set<std::string>> expected{
      {"p1a", "p2a", "p3a"}, {"p1b", "p2b", "p3b"}, {"p1c"},
      {"p4"},                {"p5", "p7", "p8"},    {"p6"},
  };
  EXPECT_EQ(clusters, expected);
}

TEST(H1Greedy, FirstMergeIsTheHighestMutualInfluencePair) {
  // "First, the two nodes with the highest value of mutual influence are
  // combined" — a p1 replica with a p2 replica (mutual 1.3).
  Fixture fx;
  auto engine = fx.engine(11);  // a single merge
  const ClusteringResult result = engine.h1_greedy();
  ASSERT_EQ(result.steps.size(), 1u);
  EXPECT_NE(result.steps[0].find("p1a"), std::string::npos);
  EXPECT_NE(result.steps[0].find("p2a"), std::string::npos);
  EXPECT_NE(result.steps[0].find("1.3"), std::string::npos);
}

TEST(H1Greedy, ReplicasNeverCombined) {
  Fixture fx;
  for (std::size_t target = 6; target <= 11; ++target) {
    auto engine = fx.engine(target);
    const ClusteringResult result = engine.h1_greedy();
    expect_valid(result, fx.sw, target);
  }
}

TEST(H1Greedy, TargetBelowReplicationDegreeRejected) {
  // p1 has 3 replicas; they need 3 distinct HW nodes.
  Fixture fx;
  ClusteringOptions options;
  options.target_clusters = 2;
  EXPECT_THROW(ClusterEngine(fx.sw, options), InvalidArgument);
}

TEST(H1Rounds, ProducesValidClusteringAtTarget) {
  Fixture fx;
  auto engine = fx.engine(6);
  const ClusteringResult result = engine.h1_rounds();
  expect_valid(result, fx.sw, 6);
}

TEST(H2MinCut, ProducesValidClusteringAtTarget) {
  Fixture fx;
  auto engine = fx.engine(6);
  const ClusteringResult result = engine.h2_mincut();
  expect_valid(result, fx.sw, 6);
}

TEST(H2MinCut, CutsRecordSteps) {
  Fixture fx;
  auto engine = fx.engine(6);
  const ClusteringResult result = engine.h2_mincut();
  EXPECT_FALSE(result.steps.empty());
  EXPECT_NE(result.steps[0].find("cut"), std::string::npos);
}

TEST(H3Importance, SeedsAreTheMostImportantNodes) {
  Fixture fx;
  auto engine = fx.engine(6);
  const ClusteringResult result = engine.h3_importance();
  expect_valid(result, fx.sw, 6);
  // The six most important nodes are p1a..c (C=10,FT=3) and p2a,b (C=8),
  // then p3a (C=7) — each must sit in a distinct cluster.
  const auto groups = result.partition.groups();
  std::set<std::uint32_t> seed_clusters;
  for (graph::NodeIndex v = 0; v < fx.sw.node_count(); ++v) {
    const std::string& name = fx.sw.node(v).name;
    if (name == "p1a" || name == "p1b" || name == "p1c" || name == "p2a" ||
        name == "p2b" || name == "p3a") {
      seed_clusters.insert(result.partition.cluster_of[v]);
    }
  }
  EXPECT_EQ(seed_clusters.size(), 6u);
}

TEST(H3Importance, RestrictiveThresholdsMakeItInfeasible) {
  Fixture fx;
  auto engine = fx.engine(6);
  // No node may attach: importance must be below 0 AND influence above 2.
  EXPECT_THROW(engine.h3_importance(0.0, 2.0), Infeasible);
}

TEST(CriticalityPairing, ReproducesFigure7Clusters) {
  // §6.2 Approach B: the narrated pairing with the replicate-conflict
  // resolution yields exactly these six clusters.
  Fixture fx;
  auto engine = fx.engine(core::example98::kHwNodes);
  const ClusteringResult result = engine.criticality_pairing();
  expect_valid(result, fx.sw, 6);
  const auto clusters = canon(result, fx.sw);
  const std::set<std::set<std::string>> expected{
      {"p1a", "p8"}, {"p1b", "p7"},  {"p1c", "p6"},
      {"p2a", "p5"}, {"p2b", "p3b"}, {"p3a", "p4"},
  };
  EXPECT_EQ(clusters, expected);
}

TEST(CriticalityPairing, NarratesTheReplicateConflict) {
  Fixture fx;
  auto engine = fx.engine(6);
  const ClusteringResult result = engine.criticality_pairing();
  const bool mentions_conflict =
      std::any_of(result.steps.begin(), result.steps.end(),
                  [](const std::string& s) {
                    return s.find("conflict") != std::string::npos;
                  });
  EXPECT_TRUE(mentions_conflict);
}

TEST(TimingOrdered, ReproducesFigure8Clusters) {
  // §6.2 closing technique: four HW nodes, criticality-ordered first fit.
  Fixture fx;
  auto engine = fx.engine(core::example98::kHwNodesFig8);
  const ClusteringResult result = engine.timing_ordered();
  expect_valid(result, fx.sw, 4);
  const auto clusters = canon(result, fx.sw);
  const std::set<std::set<std::string>> expected{
      {"p1a", "p2a", "p3a"},
      {"p1b", "p2b", "p3b"},
      {"p1c", "p4", "p5"},
      {"p6", "p7", "p8"},
  };
  EXPECT_EQ(clusters, expected);
}

TEST(TimingOrdered, EstOrderAlsoValid) {
  Fixture fx;
  auto engine = fx.engine(4);
  const ClusteringResult result = engine.timing_ordered(OrderKey::kEst);
  expect_valid(result, fx.sw, 4);
}

TEST(TimingOrdered, UrgencyOrderWithCapFailsOnTrailingReplicas) {
  // Urgency ordering sends the loose p1 replicas to the back of the list;
  // with the default cap of 3 they find every bin full or replica-blocked.
  // This is the §6 tradeoff made visible: ordering interacts with packing.
  Fixture fx;
  auto engine = fx.engine(4);
  EXPECT_THROW(engine.timing_ordered(OrderKey::kUrgency), Infeasible);
}

TEST(TimingOrdered, UrgencyOrderUncappedProducesValidPacking) {
  Fixture fx;
  auto engine = fx.engine(4);
  const ClusteringResult result =
      engine.timing_ordered(OrderKey::kUrgency, fx.sw.node_count());
  EXPECT_LE(result.partition.cluster_count, 4u);
  // Replica separation and schedulability must still hold.
  const auto groups = result.partition.groups();
  for (const auto& members : groups) {
    std::vector<sched::Job> jobs;
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (std::size_t j = i + 1; j < members.size(); ++j) {
        EXPECT_FALSE(fx.sw.replicas(members[i], members[j]));
      }
      if (fx.sw.has_timing(members[i])) {
        jobs.push_back(fx.sw.job_of(members[i]));
      }
    }
    EXPECT_TRUE(sched::edf_feasible(jobs));
  }
}

TEST(Quotient, InternalInfluencesDisappear) {
  // Fig. 2's property at the clustering level: after H1, the p1a<->p2a
  // influence is internal and the quotient has no edge between their
  // cluster and itself.
  Fixture fx;
  auto engine = fx.engine(6);
  const ClusteringResult result = engine.h1_greedy();
  for (const graph::Edge& e : result.quotient.edges()) {
    EXPECT_NE(e.from, e.to);
    EXPECT_GT(e.weight, 0.0);  // replica links are excluded
  }
}

TEST(Quotient, CrossClusterInfluenceDecreasesWithFewerClusters) {
  // Merging can only hide influence, never create it.
  Fixture fx;
  double previous = fx.sw.influence_graph().total_weight();
  for (std::size_t target = 11; target >= 6; --target) {
    auto engine = fx.engine(target);
    const ClusteringResult result = engine.h1_greedy();
    const double cross = result.cross_cluster_influence();
    EXPECT_LE(cross, previous + 1e-9) << "target " << target;
    previous = cross;
  }
}

TEST(CanCombine, RejectsReplicasAndInfeasibleUnions) {
  Fixture fx;
  auto engine = fx.engine(6);
  graph::Partition identity = graph::Partition::identity(fx.sw.node_count());
  // Locate p1a, p1b, p3a, p5 node indices.
  graph::NodeIndex p1a = 0, p1b = 0, p3a = 0, p5 = 0;
  for (graph::NodeIndex v = 0; v < fx.sw.node_count(); ++v) {
    const std::string& name = fx.sw.node(v).name;
    if (name == "p1a") p1a = v;
    if (name == "p1b") p1b = v;
    if (name == "p3a") p3a = v;
    if (name == "p5") p5 = v;
  }
  EXPECT_FALSE(engine.can_combine(identity, identity.cluster_of[p1a],
                                  identity.cluster_of[p1b]));
  EXPECT_FALSE(engine.can_combine(identity, identity.cluster_of[p3a],
                                  identity.cluster_of[p5]));
  EXPECT_TRUE(engine.can_combine(identity, identity.cluster_of[p1a],
                                 identity.cluster_of[p3a]));
}

}  // namespace
}  // namespace fcm::mapping
