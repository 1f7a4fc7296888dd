// Differential test: SwGraph::build against the dense pair loop it
// replaced.
//
// The reference below is the build as it stood before the sparse walk: one
// InfluenceModel::influence() lookup per ordered process pair, replicated
// across replicas. The sparse build must reproduce its nodes and its
// influence_graph().edges() element for element — order, weight bits and
// labels — for every process list the reference accepts.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "core/example98.h"
#include "core/synthetic.h"
#include "mapping/swgraph.h"

namespace fcm::mapping {
namespace {

struct ReferenceSw {
  std::vector<SwNode> nodes;
  graph::Digraph graph;
};

ReferenceSw reference_build(const core::FcmHierarchy& hierarchy,
                            const core::InfluenceModel& influence,
                            const std::vector<FcmId>& processes) {
  ReferenceSw sw;
  std::vector<std::vector<graph::NodeIndex>> replicas_of(processes.size());
  for (std::size_t p = 0; p < processes.size(); ++p) {
    const core::Fcm& fcm = hierarchy.get(processes[p]);
    const int degree = fcm.attributes.replication;
    for (int r = 0; r < degree; ++r) {
      SwNode node;
      node.id = SwNodeId(static_cast<std::uint32_t>(sw.nodes.size()));
      node.name = degree == 1 ? fcm.name : fcm.name + replica_suffix(r);
      node.origin = fcm.id;
      node.replica_index = r;
      node.attributes = fcm.attributes;
      node.importance = core::importance(fcm.attributes, {});
      replicas_of[p].push_back(sw.graph.add_node(node.name));
      sw.nodes.push_back(std::move(node));
    }
  }
  for (std::size_t from = 0; from < processes.size(); ++from) {
    for (std::size_t to = 0; to < processes.size(); ++to) {
      if (from == to) continue;
      const Probability p =
          influence.influence(processes[from], processes[to]);
      if (p == Probability::zero()) continue;
      for (const graph::NodeIndex a : replicas_of[from]) {
        for (const graph::NodeIndex b : replicas_of[to]) {
          sw.graph.add_edge(a, b, p.value());
        }
      }
    }
  }
  for (const auto& group : replicas_of) {
    for (std::size_t i = 0; i < group.size(); ++i) {
      for (std::size_t j = i + 1; j < group.size(); ++j) {
        sw.graph.add_edge(group[i], group[j], 0.0, "replica");
      }
    }
  }
  return sw;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_build(const core::FcmHierarchy& hierarchy,
                       const core::InfluenceModel& influence,
                       const std::vector<FcmId>& processes) {
  const ReferenceSw want = reference_build(hierarchy, influence, processes);
  const SwGraph got = SwGraph::build(hierarchy, influence, processes);
  ASSERT_EQ(got.node_count(), want.nodes.size());
  for (std::size_t v = 0; v < want.nodes.size(); ++v) {
    const SwNode& a = got.nodes()[v];
    const SwNode& b = want.nodes[v];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.origin, b.origin);
    EXPECT_EQ(a.replica_index, b.replica_index);
    EXPECT_TRUE(a.attributes == b.attributes);
    EXPECT_EQ(bits(a.importance), bits(b.importance));
    EXPECT_EQ(got.influence_graph().name(static_cast<graph::NodeIndex>(v)),
              want.graph.name(static_cast<graph::NodeIndex>(v)));
  }
  const auto& got_edges = got.influence_graph().edges();
  const auto& want_edges = want.graph.edges();
  ASSERT_EQ(got_edges.size(), want_edges.size());
  for (std::size_t e = 0; e < want_edges.size(); ++e) {
    EXPECT_EQ(got_edges[e].from, want_edges[e].from) << "edge " << e;
    EXPECT_EQ(got_edges[e].to, want_edges[e].to) << "edge " << e;
    EXPECT_EQ(bits(got_edges[e].weight), bits(want_edges[e].weight))
        << "edge " << e;
    EXPECT_EQ(got_edges[e].label, want_edges[e].label) << "edge " << e;
  }
}

TEST(SwGraphReference, SyntheticModelsMatchTheDenseLoop) {
  for (const std::size_t processes : {2u, 3u, 7u, 31u, 128u, 300u}) {
    for (const std::uint64_t seed : {1u, 2u, 5u}) {
      SCOPED_TRACE(testing::Message()
                   << processes << " processes, seed " << seed);
      const core::synthetic::System sys =
          core::synthetic::make_system(processes, seed);
      expect_same_build(sys.hierarchy, sys.influence, sys.processes);
    }
  }
}

TEST(SwGraphReference, PermutedAndSubsetProcessLists) {
  for (const std::uint64_t seed : {3u, 4u, 9u}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const core::synthetic::System sys = core::synthetic::make_system(60, seed);
    Rng rng(seed);
    std::vector<FcmId> permuted = sys.processes;
    rng.shuffle(std::span<FcmId>(permuted));
    expect_same_build(sys.hierarchy, sys.influence, permuted);
    std::reverse(permuted.begin(), permuted.end());
    expect_same_build(sys.hierarchy, sys.influence, permuted);

    std::vector<FcmId> subset;
    for (const FcmId id : permuted) {
      if (rng.uniform() < 0.4) subset.push_back(id);
    }
    ASSERT_GE(subset.size(), 2u);
    expect_same_build(sys.hierarchy, sys.influence, subset);
    std::sort(subset.begin(), subset.end());
    expect_same_build(sys.hierarchy, sys.influence, subset);
  }
}

TEST(SwGraphReference, ZeroValuedPairsAddNoEdge) {
  core::FcmHierarchy hierarchy;
  core::InfluenceModel influence;
  std::vector<FcmId> processes;
  for (int i = 0; i < 5; ++i) {
    core::Attributes attrs;
    attrs.criticality = static_cast<core::Criticality>(i + 1);
    attrs.replication = static_cast<core::ReplicationDegree>(1 + i % 3);
    const std::string name = "q" + std::to_string(i);
    const FcmId id = hierarchy.create(name, core::Level::kProcess, attrs);
    influence.add_member(id, name);
    processes.push_back(id);
  }
  // A direct zero, a factor whose Eq. 1 product is zero, and live pairs in
  // both directions around them.
  influence.set_direct(processes[0], processes[1], Probability(0.0));
  influence.add_factor(processes[1], processes[2],
                       {core::FactorKind::kSharedMemory, "shm",
                        Probability(0.0), Probability(0.5), Probability(0.5)});
  influence.add_factor(processes[2], processes[1],
                       {core::FactorKind::kTiming, "t", Probability(0.2),
                        Probability(0.5), Probability(0.5)});
  influence.set_direct(processes[4], processes[0], Probability(0.3));
  influence.set_direct(processes[3], processes[2], Probability(0.25));
  expect_same_build(hierarchy, influence, processes);

  const SwGraph sw = SwGraph::build(hierarchy, influence, processes);
  for (const graph::Edge& e : sw.influence_graph().edges()) {
    if (e.label != "replica") {
      EXPECT_GT(e.weight, 0.0);
    }
  }
}

TEST(SwGraphReference, Example98) {
  const core::example98::Instance instance = core::example98::make_instance();
  expect_same_build(instance.hierarchy, instance.influence,
                    instance.processes);
}

}  // namespace
}  // namespace fcm::mapping
