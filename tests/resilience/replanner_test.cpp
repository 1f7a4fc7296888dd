#include "mapping/replanner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "common/error.h"
#include "core/example98.h"
#include "mapping/planner.h"

namespace fcm::mapping {
namespace {

struct Mapping {
  core::example98::Instance instance;
  HwGraph hw;
  SwGraph sw;
  Plan plan;
};

const Mapping& mapping98() {
  static const Mapping m = [] {
    Mapping built;
    built.instance = core::example98::make_instance();
    built.hw = HwGraph::complete(core::example98::kHwNodes);
    IntegrationPlanner planner(built.instance.hierarchy,
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

std::vector<graph::NodeIndex> replicas_of(const Mapping& m, FcmId origin) {
  std::vector<graph::NodeIndex> nodes;
  for (graph::NodeIndex v = 0; v < m.sw.node_count(); ++v) {
    if (m.sw.node(v).origin == origin) nodes.push_back(v);
  }
  return nodes;
}

/// Same instance planned onto a smaller 4-node platform: losses bite
/// harder here, which is what the degradation tests need.
const Mapping& mapping_on4() {
  static const Mapping m = [] {
    Mapping built;
    built.instance = core::example98::make_instance();
    built.hw = HwGraph::complete(4);
    IntegrationPlanner planner(built.instance.hierarchy,
                               built.instance.influence,
                               built.instance.processes, built.hw);
    built.plan = planner.best_plan();
    built.sw = planner.sw_graph();
    return built;
  }();
  return m;
}

ReplanResult replan(const Mapping& m, const std::vector<HwNodeId>& failed,
                    const ReplanOptions& options = {}) {
  return replan_after_loss(m.sw, m.plan.clustering.partition,
                           m.plan.assignment, m.hw, failed, options);
}

/// Host (original HW id) of each kept original SW node.
std::map<graph::NodeIndex, HwNodeId> hosts_after(const ReplanResult& r) {
  std::map<graph::NodeIndex, HwNodeId> hosts;
  for (std::size_t i = 0; i < r.kept.size(); ++i) {
    hosts[r.kept[i]] =
        r.assignment.host(r.clustering.partition.cluster_of[i]);
  }
  return hosts;
}

TEST(Replanner, PromotesSurvivingReplicasAfterSingleLoss) {
  const Mapping& m = mapping98();
  const FcmId p1 = m.instance.process(1);
  const std::vector<graph::NodeIndex> replicas = replicas_of(m, p1);
  ASSERT_GE(replicas.size(), 3u);
  const HwNodeId failed = host_of(m, replicas[0]);

  const ReplanResult result = replan(m, {failed});
  EXPECT_TRUE(result.feasible);
  EXPECT_GE(result.attempts, 1u);

  // p1 lives on with one replica fewer; no task shedding was needed for a
  // single loss on the 6-node platform.
  const auto p1_fate = std::find_if(
      result.processes.begin(), result.processes.end(),
      [&p1](const ProcessSurvival& p) { return p.origin == p1; });
  ASSERT_NE(p1_fate, result.processes.end());
  EXPECT_EQ(p1_fate->replicas_before, 3);
  EXPECT_EQ(p1_fate->replicas_after, 2);
  EXPECT_TRUE(p1_fate->survived());
  EXPECT_TRUE(result.shed.empty());

  // Every node that lived on the failed HW node is gone from the plan.
  for (const graph::NodeIndex v : result.kept) {
    EXPECT_NE(host_of(m, v).value(), failed.value());
  }
}

TEST(Replanner, NeverCollocatesSurvivingReplicas) {
  const Mapping& m = mapping98();
  // Lose two nodes at once: the repair must still keep every surviving
  // replica pair (joined by weight-0 edges) on distinct HW nodes.
  const FcmId p1 = m.instance.process(1);
  const std::vector<graph::NodeIndex> replicas = replicas_of(m, p1);
  ASSERT_GE(replicas.size(), 2u);
  const std::vector<HwNodeId> failed{host_of(m, replicas[0]),
                                     host_of(m, replicas[1])};

  const ReplanResult result = replan(m, failed);
  ASSERT_TRUE(result.feasible);
  const std::map<graph::NodeIndex, HwNodeId> hosts = hosts_after(result);

  std::set<std::uint32_t> dead;
  for (const HwNodeId id : failed) dead.insert(id.value());
  std::map<FcmId, std::set<std::uint32_t>> process_hosts;
  for (const auto& [v, host] : hosts) {
    // Hosts come back in the original HW id space and avoid the dead nodes.
    ASSERT_TRUE(host.valid());
    ASSERT_LT(host.value(), m.hw.node_count());
    EXPECT_FALSE(dead.contains(host.value()));
    // Two replicas of one process must never share a host.
    const FcmId origin = m.sw.node(v).origin;
    EXPECT_TRUE(process_hosts[origin].insert(host.value()).second)
        << "replicas of one process collocated on hw" << host.value();
  }
}

TEST(Replanner, RepairsOntoFewerNodesThanTheReplicationDegree) {
  // Regression test for the stale-replica-index bug: on a 4-node platform
  // losing two nodes strips a TMR process down to one survivor on two
  // remaining HW nodes. Before SwGraph::subset learned to promote
  // survivors, the lone replica kept replica_index 2 and a replication
  // attribute of 3, so ClusterEngine's degree precondition ("replication
  // degree 3 exceeds the target cluster count") rejected every attempt and
  // the replanner shed the whole system to no avail.
  const Mapping& m = mapping_on4();
  const ReplanResult result = replan(m, {HwNodeId(0), HwNodeId(1)});
  EXPECT_TRUE(result.feasible);
  EXPECT_EQ(result.attempts, 1u);
  EXPECT_TRUE(result.shed.empty());

  const FcmId p1 = m.instance.process(1);
  const auto p1_fate = std::find_if(
      result.processes.begin(), result.processes.end(),
      [&p1](const ProcessSurvival& p) { return p.origin == p1; });
  ASSERT_NE(p1_fate, result.processes.end());
  EXPECT_EQ(p1_fate->replicas_before, 3);
  EXPECT_EQ(p1_fate->replicas_after, 1);
  EXPECT_TRUE(p1_fate->survived());

  // The surviving subgraph really is promoted: no node demands more
  // clusters than the two HW nodes the repair has to work with.
  for (const SwNode& node : result.surviving.nodes()) {
    EXPECT_LE(node.attributes.replication, 2) << node.name;
    EXPECT_LE(node.replica_index, 1) << node.name;
  }
}

TEST(Replanner, SheddingBacktracksToTheMinimalSet) {
  // Regression test for the doubling-batch overshoot: losing nodes 1 and 2
  // of the 4-node plan under the exact non-preemptive test needs exactly 4
  // tasks shed, but the escalation probes shed counts 0, 1, 3, 7 — the
  // first feasible probe sheds 7 of the 8 candidates. Before the
  // minimality backtrack, those 7 were final: three tasks that would have
  // fit were dropped from service. The backtrack binary-searches the
  // (3, 7] bracket down to the true boundary.
  const Mapping& m = mapping_on4();
  ReplanOptions options;
  options.policy = sched::Policy::kNonPreemptive;
  const ReplanResult result = replan(m, {HwNodeId(1), HwNodeId(2)}, options);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.shed.size(), 4u);
  EXPECT_EQ(result.kept.size(), 4u);
  // 4 escalation probes (0, 1, 3, 7) + 2 backtrack probes (5, 4).
  EXPECT_EQ(result.attempts, 6u);
  // Minimality evidence in the audit log: the backtrack actually probed a
  // shed count below the accepted one and saw it fail — the accepted set
  // is on the feasibility boundary, not merely feasible.
  EXPECT_EQ(result.shed.size() % 2, 0u)
      << "a doubling-only escalation can only accept shed counts "
         "2^k - 1; an even count proves the backtrack engaged";
}

TEST(Replanner, SheddingIsMonotoneInImportance) {
  // Three of four nodes die and the survivor pool is judged by the harsher
  // exact non-preemptive test: merged clusters overrun their deadlines, so
  // tasks are shed in ascending importance order until the remainder fits.
  // Monotone means no shed task outranks any retained one.
  const Mapping& m = mapping_on4();
  ReplanOptions options;
  options.policy = sched::Policy::kNonPreemptive;
  const ReplanResult result =
      replan(m, {HwNodeId(0), HwNodeId(1), HwNodeId(2)}, options);
  EXPECT_TRUE(result.feasible);
  ASSERT_FALSE(result.shed.empty());
  EXPECT_GT(result.attempts, 1u);

  double max_shed = 0.0;
  for (const SheddingRecord& record : result.shed) {
    max_shed = std::max(max_shed, record.importance);
  }
  for (const graph::NodeIndex v : result.kept) {
    EXPECT_LE(max_shed, m.sw.node(v).importance + 1e-12)
        << "shed a task outranking retained " << m.sw.node(v).name;
  }
  // The shed list itself is emitted in ascending importance order.
  for (std::size_t i = 1; i < result.shed.size(); ++i) {
    EXPECT_LE(result.shed[i - 1].importance,
              result.shed[i].importance + 1e-12);
  }
}

TEST(Replanner, TotalLossIsInfeasibleNotAnError) {
  const Mapping& m = mapping98();
  std::vector<HwNodeId> failed;
  for (std::uint32_t n = 0; n < m.hw.node_count(); ++n) {
    failed.emplace_back(n);
  }
  const ReplanResult result = replan(m, failed);
  EXPECT_FALSE(result.feasible);
  EXPECT_TRUE(result.kept.empty());
  EXPECT_TRUE(result.surviving_levels().empty());
  for (const ProcessSurvival& p : result.processes) {
    EXPECT_EQ(p.replicas_after, 0);
    EXPECT_FALSE(p.survived());
  }
  // Every mapped criticality level reports as lost.
  std::set<core::Criticality> levels;
  for (const SwNode& node : m.sw.nodes()) {
    levels.insert(node.attributes.criticality);
  }
  const std::vector<core::Criticality> lost = result.lost_levels();
  EXPECT_EQ(std::set<core::Criticality>(lost.begin(), lost.end()), levels);
}

TEST(Replanner, TotalLossNamesProcessesLikeEveryReplan) {
  const Mapping& m = mapping98();
  std::vector<HwNodeId> failed;
  for (std::uint32_t n = 0; n < m.hw.node_count(); ++n) {
    failed.emplace_back(n);
  }
  const ReplanResult total = replan(m, failed);
  const ReplanResult single = replan(m, {HwNodeId(0)});
  ASSERT_EQ(total.processes.size(), single.processes.size());
  for (std::size_t p = 0; p < total.processes.size(); ++p) {
    EXPECT_EQ(total.processes[p].name, single.processes[p].name);
    EXPECT_EQ(total.processes[p].replicas_before,
              single.processes[p].replicas_before);
  }
  EXPECT_EQ(total.processes.front().name, "p1");  // not replica "p1a"
}

TEST(Replanner, RejectsMalformedInputs) {
  const Mapping& m = mapping98();
  EXPECT_THROW(replan(m, {HwNodeId(99)}), InvalidArgument);
  EXPECT_THROW(replan(m, {HwNodeId::invalid()}), InvalidArgument);

  graph::Partition truncated = m.plan.clustering.partition;
  truncated.cluster_of.pop_back();
  EXPECT_THROW(replan_after_loss(m.sw, truncated, m.plan.assignment, m.hw,
                                 {HwNodeId(0)}),
               InvalidArgument);
}

TEST(Replanner, SurvivingAndLostLevelsPartitionTheMappedLevels) {
  const Mapping& m = mapping98();
  const ReplanResult result = replan(m, {HwNodeId(0)});
  const std::vector<core::Criticality> surviving =
      result.surviving_levels();
  const std::vector<core::Criticality> lost = result.lost_levels();
  for (const core::Criticality level : surviving) {
    EXPECT_EQ(std::find(lost.begin(), lost.end(), level), lost.end());
  }
  // Ascending and deduplicated.
  EXPECT_TRUE(std::is_sorted(surviving.begin(), surviving.end()));
  EXPECT_TRUE(std::is_sorted(lost.begin(), lost.end()));
  EXPECT_EQ(std::adjacent_find(surviving.begin(), surviving.end()),
            surviving.end());
}

}  // namespace
}  // namespace fcm::mapping
