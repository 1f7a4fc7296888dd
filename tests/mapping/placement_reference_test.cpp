// Differential test: hop tables and table-driven placement against the
// BFS-per-lookup paths they replaced.
//
// The references below are the placer and dilation loop as they stood
// before hop tables: every candidate scans every placed cluster through
// two quotient lookups, and every hop count is a fresh BFS. assign_* must
// reproduce their hw_of and steps (or throw the same error), and evaluate
// their dilation bit for bit, on line, ring, star and 2-D mesh platforms —
// including resource-restricted nodes that force the placer to backtrack
// and platforms that are not connected.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <set>
#include <string>
#include <typeinfo>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "core/importance.h"
#include "mapping/assignment.h"
#include "mapping/clustering.h"
#include "mapping/hw.h"
#include "mapping/quality.h"

namespace fcm::mapping {
namespace {

// ---- References: the pre-hop-table code paths. ----

int reference_hops(const HwGraph& hw, HwNodeId a, HwNodeId b) {
  if (a == b) return 0;
  std::vector<int> dist(hw.node_count(), -1);
  std::queue<std::uint32_t> queue;
  queue.push(a.value());
  dist[a.value()] = 0;
  while (!queue.empty()) {
    const std::uint32_t v = queue.front();
    queue.pop();
    for (const HwLink& link : hw.links(HwNodeId(v))) {
      if (dist[link.to] < 0) {
        dist[link.to] = dist[v] + 1;
        if (link.to == b.value()) return dist[link.to];
        queue.push(link.to);
      }
    }
  }
  throw Infeasible("HW nodes " + hw.node(a).name + " and " + hw.node(b).name +
                   " are not connected");
}

struct ClusterInfo {
  std::uint32_t index = 0;
  double importance = 0.0;
  core::Criticality criticality = 0;
  core::ReplicationDegree replication = 0;
  double urgency = 0.0;
  double throughput = 0.0;
  core::SecurityLevel security = 0;
  std::set<std::string> required_resources;
};

std::vector<ClusterInfo> summarize(const SwGraph& sw,
                                   const ClusteringResult& clustering) {
  std::vector<ClusterInfo> info(clustering.partition.cluster_count);
  for (std::uint32_t c = 0; c < info.size(); ++c) info[c].index = c;
  for (std::size_t v = 0; v < clustering.partition.cluster_of.size(); ++v) {
    const SwNode& node = sw.node(static_cast<graph::NodeIndex>(v));
    ClusterInfo& c = info[clustering.partition.cluster_of[v]];
    c.importance = std::max(c.importance, node.importance);
    c.criticality = std::max(c.criticality, node.attributes.criticality);
    c.replication = std::max(c.replication, node.attributes.replication);
    c.urgency = std::max(c.urgency, core::timing_urgency(node.attributes));
    c.throughput += node.attributes.throughput;
    c.security = std::max(c.security, node.attributes.security);
    c.required_resources.insert(node.attributes.required_resources.begin(),
                                node.attributes.required_resources.end());
  }
  return info;
}

bool resources_ok(const ClusterInfo& cluster, const HwNode& node) {
  return std::includes(node.resources.begin(), node.resources.end(),
                       cluster.required_resources.begin(),
                       cluster.required_resources.end());
}

struct ReferencePlacer {
  const std::vector<std::uint32_t>& order;
  const std::vector<ClusterInfo>& info;
  const ClusteringResult& clustering;
  const HwGraph& hw;
  Assignment assignment;
  std::vector<bool> used;
  int backtracks = 0;

  bool place(std::size_t position) {
    if (position == order.size()) return true;
    const std::uint32_t c = order[position];

    struct Candidate {
      HwNodeId node;
      double cost;
      std::size_t resources;
    };
    std::vector<Candidate> candidates;
    for (const HwNode& candidate : hw.nodes()) {
      if (used[candidate.id.value()]) continue;
      if (!resources_ok(info[c], candidate)) continue;
      double cost = 0.0;
      for (std::uint32_t other = 0; other < info.size(); ++other) {
        if (!assignment.hw_of[other].valid()) continue;
        const double influence =
            clustering.quotient.weight(c, other).value_or(0.0) +
            clustering.quotient.weight(other, c).value_or(0.0);
        if (influence > 0.0) {
          cost += influence *
                  reference_hops(hw, candidate.id, assignment.hw_of[other]);
        }
      }
      candidates.push_back(
          Candidate{candidate.id, cost, candidate.resources.size()});
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                if (a.cost != b.cost) return a.cost < b.cost;
                if (a.resources != b.resources)
                  return a.resources < b.resources;
                return a.node < b.node;
              });
    for (const Candidate& candidate : candidates) {
      used[candidate.node.value()] = true;
      assignment.hw_of[c] = candidate.node;
      if (place(position + 1)) return true;
      used[candidate.node.value()] = false;
      assignment.hw_of[c] = HwNodeId::invalid();
      ++backtracks;
    }
    return false;
  }
};

Assignment reference_place(const std::vector<std::uint32_t>& order,
                           const std::vector<ClusterInfo>& info,
                           const ClusteringResult& clustering,
                           const HwGraph& hw, int* backtracks) {
  FCM_REQUIRE(info.size() <= hw.node_count(),
              "more clusters than HW nodes; cluster further first");
  ReferencePlacer placer{order, info, clustering, hw, Assignment{}, {}};
  placer.assignment.hw_of.assign(info.size(), HwNodeId::invalid());
  placer.used.assign(hw.node_count(), false);
  const bool placed = placer.place(0);
  *backtracks += placer.backtracks;
  if (!placed) {
    throw Infeasible(
        "no assignment satisfies every cluster's resource requirements");
  }
  for (const std::uint32_t c : order) {
    placer.assignment.steps.push_back(
        "map {" + clustering.quotient.name(c) + "} -> " +
        hw.node(placer.assignment.hw_of[c]).name);
  }
  return placer.assignment;
}

Assignment reference_by_importance(const SwGraph& sw,
                                   const ClusteringResult& clustering,
                                   const HwGraph& hw, int* backtracks) {
  const std::vector<ClusterInfo> info = summarize(sw, clustering);
  std::vector<std::uint32_t> order(info.size());
  for (std::uint32_t c = 0; c < info.size(); ++c) order[c] = c;
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (info[a].importance != info[b].importance) {
                return info[a].importance > info[b].importance;
              }
              return a < b;
            });
  return reference_place(order, info, clustering, hw, backtracks);
}

// The default Approach B priority: criticality, replication, timing
// urgency, throughput.
Assignment reference_lexicographic(const SwGraph& sw,
                                   const ClusteringResult& clustering,
                                   const HwGraph& hw, int* backtracks) {
  const std::vector<ClusterInfo> info = summarize(sw, clustering);
  std::vector<std::uint32_t> order(info.size());
  for (std::uint32_t c = 0; c < info.size(); ++c) order[c] = c;
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const double keys[4][2] = {
                  {static_cast<double>(info[a].criticality),
                   static_cast<double>(info[b].criticality)},
                  {static_cast<double>(info[a].replication),
                   static_cast<double>(info[b].replication)},
                  {info[a].urgency, info[b].urgency},
                  {info[a].throughput, info[b].throughput}};
              for (const auto& key : keys) {
                if (key[0] != key[1]) return key[0] > key[1];
              }
              return a < b;
            });
  return reference_place(order, info, clustering, hw, backtracks);
}

double reference_dilation(const ClusteringResult& clustering,
                          const Assignment& assignment, const HwGraph& hw) {
  double dilation = 0.0;
  for (const graph::Edge& e : clustering.quotient.edges()) {
    dilation += e.weight * reference_hops(hw, assignment.hw_of[e.from],
                                          assignment.hw_of[e.to]);
  }
  return dilation;
}

// ---- Platforms. ----

using Resources = std::vector<std::set<std::string>>;

HwNodeId id(std::size_t i) { return HwNodeId(static_cast<std::uint32_t>(i)); }

/// Nodes n0, n1, ...; node i carries resources[i] when there is one.
HwGraph platform(std::size_t n, const Resources& resources) {
  HwGraph hw;
  for (std::size_t i = 0; i < n; ++i) {
    hw.add_node("n" + std::to_string(i), 0.0,
                i < resources.size() ? resources[i] : std::set<std::string>{});
  }
  return hw;
}

HwGraph with_links(std::size_t n,
                   const std::vector<std::pair<std::size_t, std::size_t>>& links,
                   const Resources& resources = {}) {
  HwGraph hw = platform(n, resources);
  for (const auto& [a, b] : links) hw.add_link(id(a), id(b), 1.0);
  return hw;
}

HwGraph line(std::size_t n, const Resources& resources = {}) {
  HwGraph hw = platform(n, resources);
  for (std::size_t i = 0; i + 1 < n; ++i) hw.add_link(id(i), id(i + 1), 1.0);
  return hw;
}

HwGraph ring(std::size_t n, const Resources& resources = {}) {
  HwGraph hw = line(n, resources);
  if (n > 2) hw.add_link(id(n - 1), id(0), 1.0);
  return hw;
}

HwGraph star(std::size_t n, const Resources& resources = {}) {
  HwGraph hw = platform(n, resources);
  for (std::size_t i = 1; i < n; ++i) hw.add_link(id(0), id(i), 1.0);
  return hw;
}

HwGraph mesh(std::size_t rows, std::size_t cols,
             const Resources& resources = {}) {
  HwGraph hw = platform(rows * cols, resources);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t v = r * cols + c;
      if (c + 1 < cols) hw.add_link(id(v), id(v + 1), 1.0);
      if (r + 1 < rows) hw.add_link(id(v), id(v + cols), 1.0);
    }
  }
  return hw;
}

/// A random connected platform: a random spanning tree plus extra links.
HwGraph random_connected(std::size_t n, std::uint64_t seed,
                         const Resources& resources = {}) {
  Rng rng(seed);
  HwGraph hw = platform(n, resources);
  for (std::size_t i = 1; i < n; ++i) {
    hw.add_link(id(i), id(rng.below(static_cast<std::uint32_t>(i))),
                rng.uniform(0.5, 2.0));
  }
  for (std::size_t extra = 0; extra < n; ++extra) {
    const std::size_t a = rng.below(static_cast<std::uint32_t>(n));
    const std::size_t b = rng.below(static_cast<std::uint32_t>(n));
    if (a != b && !hw.linked(id(a), id(b))) hw.add_link(id(a), id(b), 1.0);
  }
  return hw;
}

// ---- Systems. ----

struct System {
  core::FcmHierarchy hierarchy;
  core::InfluenceModel influence;
  std::vector<FcmId> processes;
};

/// `n` processes with mixed attributes; about one in ten needs resource
/// "r1" and one in twenty "r2".
System random_system(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  System sys;
  for (std::size_t i = 0; i < n; ++i) {
    core::Attributes attrs;
    attrs.criticality = static_cast<core::Criticality>(rng.range(1, 10));
    attrs.replication = rng.uniform() < 0.2 ? 2 : 1;
    attrs.throughput = static_cast<double>(rng.range(0, 4)) * 10.0;
    attrs.security = static_cast<core::SecurityLevel>(rng.range(0, 3));
    const double draw = rng.uniform();
    if (draw < 0.1) attrs.required_resources = {"r1"};
    else if (draw < 0.15) attrs.required_resources = {"r2"};
    const std::string name = "p" + std::to_string(i + 1);
    const FcmId fcm = sys.hierarchy.create(name, core::Level::kProcess, attrs);
    sys.influence.add_member(fcm, name);
    sys.processes.push_back(fcm);
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (int e = 0; e < 3; ++e) {
      const std::size_t j = rng.below(static_cast<std::uint32_t>(n));
      if (j == i ||
          sys.influence.influence(sys.processes[i], sys.processes[j])
                  .value() > 0.0) {
        continue;
      }
      sys.influence.set_direct(sys.processes[i], sys.processes[j],
                               Probability(rng.uniform(0.05, 0.6)));
    }
  }
  return sys;
}

ClusteringResult cluster_onto(const SwGraph& sw, const HwGraph& hw) {
  ClusteringOptions options;
  options.target_clusters = hw.node_count();
  options.enforce_schedulability = false;
  options.resource_check = [&hw](const std::set<std::string>& need) {
    for (const HwNode& node : hw.nodes()) {
      if (std::includes(node.resources.begin(), node.resources.end(),
                        need.begin(), need.end())) {
        return true;
      }
    }
    return false;
  };
  ClusterEngine engine(sw, options);
  return engine.h1_greedy();
}

// ---- Comparison. ----

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

template <typename T>
struct Outcome {
  std::optional<T> value;
  std::string error;  // "<type>: <what>" when it threw
};

template <typename T>
Outcome<T> run(const std::function<T()>& fn) {
  Outcome<T> out;
  try {
    out.value = fn();
  } catch (const FcmError& e) {
    out.error = std::string(typeid(e).name()) + ": " + e.what();
  }
  return out;
}

void expect_same_quality(const MappingQuality& a, const MappingQuality& b) {
  EXPECT_EQ(a.replica_separation_ok, b.replica_separation_ok);
  EXPECT_EQ(a.schedulable_ok, b.schedulable_ok);
  EXPECT_EQ(a.resources_ok, b.resources_ok);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(bits(a.cross_node_influence), bits(b.cross_node_influence));
  EXPECT_EQ(bits(a.total_influence), bits(b.total_influence));
  EXPECT_EQ(bits(a.min_separation.value()), bits(b.min_separation.value()));
  EXPECT_EQ(bits(a.max_colocated_criticality),
            bits(b.max_colocated_criticality));
  EXPECT_EQ(a.critical_pairs_colocated, b.critical_pairs_colocated);
  EXPECT_EQ(bits(a.dilation), bits(b.dilation));
}

/// Places `clustering` with both approaches through the reference and the
/// table-driven placer and compares outcomes, then (when placed) the
/// evaluated quality against the reference dilation loop. Returns the
/// number of placements that succeeded.
int expect_same_placement(const SwGraph& sw, const ClusteringResult& clustering,
                          const HwGraph& hw, int* backtracks) {
  int placed = 0;
  for (const bool approach_a : {true, false}) {
    SCOPED_TRACE(approach_a ? "approach A" : "approach B");
    const Outcome<Assignment> want = run<Assignment>([&] {
      return approach_a
                 ? reference_by_importance(sw, clustering, hw, backtracks)
                 : reference_lexicographic(sw, clustering, hw, backtracks);
    });
    const Outcome<Assignment> got = run<Assignment>([&] {
      return approach_a ? assign_by_importance(sw, clustering, hw)
                        : assign_lexicographic(sw, clustering, hw);
    });
    EXPECT_EQ(got.error, want.error);
    if (!got.value || !want.value) continue;
    ++placed;
    EXPECT_EQ(got.value->hw_of, want.value->hw_of);
    EXPECT_EQ(got.value->steps, want.value->steps);

    const Outcome<MappingQuality> quality = run<MappingQuality>(
        [&] { return evaluate(sw, clustering, *got.value, hw); });
    const Outcome<double> dilation = run<double>(
        [&] { return reference_dilation(clustering, *want.value, hw); });
    EXPECT_EQ(quality.error, dilation.error);
    if (quality.value && dilation.value) {
      EXPECT_EQ(bits(quality.value->dilation), bits(*dilation.value));
      expect_same_quality(*quality.value,
                          evaluate(sw, clustering, *want.value, hw));
    }
  }
  return placed;
}

// ---- Hop tables. ----

TEST(HopTable, MatchesPerPairBfsOnRandomConnectedGraphs) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const std::size_t n = 1 + seed * 3;
    const HwGraph hw = random_connected(n, seed);
    ASSERT_TRUE(hw.strongly_connected());
    const HopTable hops(hw);
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = 0; b < n; ++b) {
        const int want = reference_hops(hw, id(a), id(b));
        EXPECT_EQ(hops(id(a), id(b)), want) << a << " -> " << b;
        EXPECT_EQ(hw.hop_distance(id(a), id(b)), want) << a << " -> " << b;
      }
    }
  }
}

TEST(HopTable, NamedTopologies) {
  for (const HwGraph& hw :
       {line(7), ring(8), star(6), mesh(3, 4), HwGraph::complete(9)}) {
    const HopTable hops(hw);
    for (std::size_t a = 0; a < hw.node_count(); ++a) {
      for (std::size_t b = 0; b < hw.node_count(); ++b) {
        EXPECT_EQ(hops(id(a), id(b)), reference_hops(hw, id(a), id(b)));
      }
    }
  }
  const HwGraph grid = mesh(3, 4);
  EXPECT_EQ(HopTable(grid)(id(0), id(11)), 5);  // opposite corners: 2 + 3
  const HwGraph loop = ring(8);
  EXPECT_EQ(HopTable(loop)(id(1), id(6)), 3);  // the short way round
}

TEST(HopTable, UnreachablePairThrowsLikeHopDistance) {
  const HwGraph hw = with_links(5, {{0, 1}, {2, 3}, {3, 4}});
  EXPECT_FALSE(hw.strongly_connected());
  const HopTable hops(hw);
  EXPECT_EQ(hops(id(2), id(4)), 2);
  const Outcome<int> want =
      run<int>([&] { return reference_hops(hw, id(1), id(4)); });
  ASSERT_FALSE(want.error.empty());
  EXPECT_EQ(run<int>([&] { return hops(id(1), id(4)); }).error, want.error);
  EXPECT_EQ(run<int>([&] { return hw.hop_distance(id(1), id(4)); }).error,
            want.error);
}

// ---- Placement and quality. ----

/// Resources of the first twelve nodes of the random-system platforms.
const Resources kResources = {
    {}, {"r1"}, {}, {"r2"}, {}, {"r1"}, {}, {"r1", "r2"},
    {}, {"r1"}, {}, {"r2"}};

TEST(PlacementReference, RandomSystemsOnNamedTopologies) {
  int backtracks = 0;
  int placed = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (const HwGraph& hw :
         {line(8, kResources), ring(9, kResources), star(7, kResources),
          mesh(3, 4, kResources), mesh(2, 5, kResources)}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << ", "
                                      << hw.node_count() << " nodes");
      const System sys = random_system(6 + 3 * seed, seed);
      const SwGraph sw =
          SwGraph::build(sys.hierarchy, sys.influence, sys.processes);
      const ClusteringResult clustering = cluster_onto(sw, hw);
      placed += expect_same_placement(sw, clustering, hw, &backtracks);
    }
  }
  EXPECT_GT(placed, 40);
}

/// Three processes: "a" (most important) and "b" influence each other,
/// and "c" (least important) needs resource "r1". Each platform below puts
/// "r1" on the node that is the greedy pick for "b", so "c" finds it taken
/// and the placer must back up and move "b".
struct BacktrackCase {
  System sys;
  SwGraph sw;
  ClusteringResult clustering;

  BacktrackCase() {
    const auto add = [&](const std::string& name, core::Criticality crit,
                         std::set<std::string> needs) {
      core::Attributes attrs;
      attrs.criticality = crit;
      attrs.required_resources = std::move(needs);
      const FcmId fcm = sys.hierarchy.create(name, core::Level::kProcess,
                                             attrs);
      sys.influence.add_member(fcm, name);
      sys.processes.push_back(fcm);
    };
    add("a", 9, {});
    add("b", 5, {});
    add("c", 1, {"r1"});
    sys.influence.set_direct(sys.processes[0], sys.processes[1],
                             Probability(0.5));
    sys.influence.set_direct(sys.processes[1], sys.processes[0],
                             Probability(0.25));
    sw = SwGraph::build(sys.hierarchy, sys.influence, sys.processes);
    clustering.partition = graph::Partition::identity(sw.node_count());
    clustering.quotient =
        graph::quotient_graph(sw.influence_graph(), clustering.partition);
  }
};

TEST(PlacementReference, ForcedBacktrackOnEveryTopology) {
  const BacktrackCase fx;
  struct Platform {
    HwGraph hw;
    std::vector<std::size_t> hosts;  // of a, b, c after the backtrack
  };
  const std::vector<Platform> platforms = {
      // a takes n0; b's nearest node is n1.
      {line(4, {{}, {"r1"}}), {0, 2, 1}},
      // b ties between n1 and n5 (one resource each) and takes n1.
      {ring(6, {{}, {"r1"}, {}, {}, {}, {"r2"}}), {0, 5, 1}},
      // a avoids the resource-rich hub; b takes the hub next to it.
      {star(5, {{"r1"}}), {1, 2, 0}},
      // b ties between n1 and n3 (one resource each) and takes n1.
      {mesh(2, 3, {{}, {"r1"}, {}, {"r2"}}), {0, 3, 1}},
  };
  for (const Platform& platform : platforms) {
    SCOPED_TRACE(testing::Message() << platform.hw.node_count() << " nodes");
    int backtracks = 0;
    EXPECT_EQ(expect_same_placement(fx.sw, fx.clustering, platform.hw,
                                    &backtracks),
              2);
    EXPECT_GT(backtracks, 0);
    std::vector<HwNodeId> hosts;
    for (const std::size_t h : platform.hosts) hosts.push_back(id(h));
    EXPECT_EQ(assign_by_importance(fx.sw, fx.clustering, platform.hw).hw_of,
              hosts);
  }
}

TEST(PlacementReference, DisconnectedPlatformThrowsTheSameError) {
  // Placement: the second cluster's candidates in the far component have a
  // placed neighbour they cannot reach.
  const BacktrackCase fx;
  const HwGraph split = with_links(4, {{0, 1}, {2, 3}}, {{}, {"r1"}});
  int backtracks = 0;
  EXPECT_EQ(expect_same_placement(fx.sw, fx.clustering, split, &backtracks),
            0);
  EXPECT_THROW((void)assign_by_importance(fx.sw, fx.clustering, split),
               Infeasible);

  // Quality: a placement made on the connected line, evaluated on a
  // platform that lost the link between two hosts.
  const HwGraph connected = line(4, {{}, {"r1"}});
  const Assignment assignment =
      assign_by_importance(fx.sw, fx.clustering, connected);
  const HwGraph cut = with_links(4, {{1, 2}, {2, 3}}, {{}, {"r1"}});
  const Outcome<double> want = run<double>(
      [&] { return reference_dilation(fx.clustering, assignment, cut); });
  ASSERT_FALSE(want.error.empty());
  EXPECT_EQ(run<MappingQuality>([&] {
              return evaluate(fx.sw, fx.clustering, assignment, cut);
            }).error,
            want.error);
}

TEST(PlacementReference, RandomSystemsOnRandomConnectedPlatforms) {
  int backtracks = 0;
  int placed = 0;
  for (std::uint64_t seed = 20; seed < 26; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const HwGraph hw = random_connected(12, seed, kResources);
    const System sys = random_system(16, seed);
    const SwGraph sw =
        SwGraph::build(sys.hierarchy, sys.influence, sys.processes);
    const ClusteringResult clustering = cluster_onto(sw, hw);
    placed += expect_same_placement(sw, clustering, hw, &backtracks);
  }
  EXPECT_GT(placed, 6);
}

}  // namespace
}  // namespace fcm::mapping
