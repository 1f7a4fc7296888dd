#include "mapping/assignment.h"

#include <algorithm>
#include <set>

#include "common/error.h"
#include "core/importance.h"

namespace fcm::mapping {

HwNodeId Assignment::host(std::uint32_t cluster) const {
  FCM_REQUIRE(cluster < hw_of.size(), "cluster index out of range");
  return hw_of[cluster];
}

const char* to_string(AttributeKey key) noexcept {
  switch (key) {
    case AttributeKey::kCriticality:
      return "criticality";
    case AttributeKey::kReplication:
      return "replication";
    case AttributeKey::kTimingUrgency:
      return "timing-urgency";
    case AttributeKey::kThroughput:
      return "throughput";
    case AttributeKey::kSecurity:
      return "security";
  }
  return "?";
}

namespace {

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

/// One quotient neighbour of a cluster: mutual = w(c,o) + w(o,c) > 0.
struct Neighbour {
  std::uint32_t cluster = 0;
  double mutual = 0.0;
};

/// Per cluster, its quotient neighbours with positive mutual influence, in
/// ascending cluster index — the only clusters that add dilation cost.
std::vector<std::vector<Neighbour>> quotient_neighbours(
    const graph::Digraph& quotient) {
  std::vector<std::vector<Neighbour>> neighbours(quotient.node_count());
  std::vector<std::uint32_t> adjacent;
  for (std::uint32_t c = 0; c < neighbours.size(); ++c) {
    adjacent.clear();
    for (const std::uint32_t e : quotient.out_edges(c)) {
      adjacent.push_back(quotient.edges()[e].to);
    }
    for (const std::uint32_t e : quotient.in_edges(c)) {
      adjacent.push_back(quotient.edges()[e].from);
    }
    std::sort(adjacent.begin(), adjacent.end());
    adjacent.erase(std::unique(adjacent.begin(), adjacent.end()),
                   adjacent.end());
    for (const std::uint32_t other : adjacent) {
      const double mutual = quotient.weight(c, other).value_or(0.0) +
                            quotient.weight(other, c).value_or(0.0);
      if (mutual > 0.0) neighbours[c].push_back(Neighbour{other, mutual});
    }
  }
  return neighbours;
}

/// Places clusters in the given order; each takes a resource-feasible HW
/// node, preferring low added dilation (Σ influence x hops to placed
/// clusters) and resource-poor nodes (so specialized nodes stay available
/// for the clusters that need them). Backtracks over node choices when the
/// greedy pick strands a later cluster's resource requirement.
struct Placer {
  const std::vector<std::uint32_t>& order;
  const std::vector<ClusterInfo>& info;
  const std::vector<std::vector<Neighbour>>& neighbours;
  const HwGraph& hw;
  const HopTable& hops;
  Assignment assignment;
  std::vector<bool> used;

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
      for (const Neighbour& other : neighbours[c]) {
        const HwNodeId host = assignment.hw_of[other.cluster];
        if (host.valid()) cost += other.mutual * hops(candidate.id, host);
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
    }
    return false;
  }
};

Assignment place_in_order(const std::vector<std::uint32_t>& order,
                          const std::vector<ClusterInfo>& info,
                          const ClusteringResult& clustering,
                          const HwGraph& hw) {
  FCM_REQUIRE(info.size() <= hw.node_count(),
              "more clusters than HW nodes; cluster further first");
  FCM_REQUIRE(clustering.quotient.node_count() == info.size(),
              "quotient does not cover every cluster");
  const std::vector<std::vector<Neighbour>> neighbours =
      quotient_neighbours(clustering.quotient);
  const HopTable hops(hw);
  Placer placer{order, info, neighbours, hw, hops, Assignment{}, {}};
  placer.assignment.hw_of.assign(info.size(), HwNodeId::invalid());
  placer.used.assign(hw.node_count(), false);
  if (!placer.place(0)) {
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

}  // namespace

Assignment assign_by_importance(const SwGraph& sw,
                                const ClusteringResult& clustering,
                                const HwGraph& hw) {
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
  return place_in_order(order, info, clustering, hw);
}

Assignment assign_lexicographic(const SwGraph& sw,
                                const ClusteringResult& clustering,
                                const HwGraph& hw,
                                const std::vector<AttributeKey>& priority) {
  FCM_REQUIRE(!priority.empty(), "attribute priority list must not be empty");
  const std::vector<ClusterInfo> info = summarize(sw, clustering);
  std::vector<std::uint32_t> order(info.size());
  for (std::uint32_t c = 0; c < info.size(); ++c) order[c] = c;
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              for (const AttributeKey key : priority) {
                double va = 0.0, vb = 0.0;
                switch (key) {
                  case AttributeKey::kCriticality:
                    va = info[a].criticality;
                    vb = info[b].criticality;
                    break;
                  case AttributeKey::kReplication:
                    va = info[a].replication;
                    vb = info[b].replication;
                    break;
                  case AttributeKey::kTimingUrgency:
                    va = info[a].urgency;
                    vb = info[b].urgency;
                    break;
                  case AttributeKey::kThroughput:
                    va = info[a].throughput;
                    vb = info[b].throughput;
                    break;
                  case AttributeKey::kSecurity:
                    va = info[a].security;
                    vb = info[b].security;
                    break;
                }
                if (va != vb) return va > vb;
              }
              return a < b;
            });
  return place_in_order(order, info, clustering, hw);
}

}  // namespace fcm::mapping
