#include "mapping/swgraph.h"

#include <algorithm>
#include <cstdint>
#include <map>

#include "common/error.h"

namespace fcm::mapping {

std::string replica_suffix(int index) {
  FCM_REQUIRE(index >= 0, "replica index must be non-negative");
  std::string suffix;
  int n = index;
  do {
    suffix.insert(suffix.begin(), static_cast<char>('a' + n % 26));
    n = n / 26 - 1;
  } while (n >= 0);
  return suffix;
}

int min_ok_replicas(int replication, std::size_t replicas) {
  return replication <= 2 ? 1 : static_cast<int>(replicas / 2) + 1;
}

SwGraph SwGraph::build(const core::FcmHierarchy& hierarchy,
                       const core::InfluenceModel& influence,
                       const std::vector<FcmId>& processes,
                       const core::ImportanceWeights& weights) {
  SwGraph sw;
  // First pass: create replica nodes per process; process p's replicas are
  // the consecutive nodes [first[p], first[p + 1]).
  std::vector<graph::NodeIndex> first(processes.size() + 1, 0);
  for (std::size_t p = 0; p < processes.size(); ++p) {
    const core::Fcm& fcm = hierarchy.get(processes[p]);
    FCM_REQUIRE(fcm.level == core::Level::kProcess,
                "SW allocation graph is built over process-level FCMs");
    const int degree = fcm.attributes.replication;
    FCM_REQUIRE(degree >= 1, "replication degree must be at least 1");
    first[p] = static_cast<graph::NodeIndex>(sw.nodes_.size());
    for (int r = 0; r < degree; ++r) {
      SwNode node;
      node.id = SwNodeId(static_cast<std::uint32_t>(sw.nodes_.size()));
      node.name = degree == 1 ? fcm.name : fcm.name + replica_suffix(r);
      node.origin = fcm.id;
      node.replica_index = r;
      node.attributes = fcm.attributes;
      node.importance = core::importance(fcm.attributes, weights);
      sw.graph_.add_node(node.name);
      sw.nodes_.push_back(std::move(node));
    }
  }
  first[processes.size()] = static_cast<graph::NodeIndex>(sw.nodes_.size());

  // Influence edges, replicated across every (source replica, target
  // replica) pair, in ascending (source, target) process order. A lone
  // process has no pairs, so it need not be a member of the model.
  if (processes.size() > 1) {
    constexpr std::size_t kUnlisted = SIZE_MAX;
    std::vector<std::size_t> position(influence.member_count(), kUnlisted);
    for (std::size_t p = 0; p < processes.size(); ++p) {
      std::size_t& at = position[influence.index_of(processes[p])];
      FCM_REQUIRE(at == kUnlisted, "process " +
                                       hierarchy.get(processes[p]).name +
                                       " is listed twice");
      at = p;
    }
    struct Pair {
      std::size_t from;
      std::size_t to;
      double weight;
    };
    std::vector<Pair> pairs;
    influence.for_each_pair([&](std::size_t from, std::size_t to,
                                Probability p,
                                const std::vector<core::InfluenceFactor>&) {
      if (p == Probability::zero()) return;
      if (position[from] == kUnlisted || position[to] == kUnlisted) return;
      pairs.push_back(Pair{position[from], position[to], p.value()});
    });
    // The walk ascends in member order; a process list in another order
    // needs the sort to ascend in process order.
    std::sort(pairs.begin(), pairs.end(), [](const Pair& a, const Pair& b) {
      return a.from != b.from ? a.from < b.from : a.to < b.to;
    });
    for (const Pair& pair : pairs) {
      for (graph::NodeIndex a = first[pair.from]; a < first[pair.from + 1];
           ++a) {
        for (graph::NodeIndex b = first[pair.to]; b < first[pair.to + 1];
             ++b) {
          sw.graph_.add_edge(a, b, pair.weight);
        }
      }
    }
  }
  // Weight-0 links between replica pairs.
  for (std::size_t p = 0; p < processes.size(); ++p) {
    for (graph::NodeIndex a = first[p]; a < first[p + 1]; ++a) {
      for (graph::NodeIndex b = a + 1; b < first[p + 1]; ++b) {
        sw.graph_.add_edge(a, b, 0.0, "replica");
      }
    }
  }
  return sw;
}

SwGraph SwGraph::subset(const std::vector<graph::NodeIndex>& keep) const {
  SwGraph sub;
  std::vector<std::uint32_t> new_index(nodes_.size(), UINT32_MAX);
  // Surviving replicas are *promoted*: replica indices renumber densely per
  // process and the replication attribute clamps to the replicas actually
  // kept, so a process reduced from TMR to one survivor no longer demands
  // three distinct clusters from downstream constraint checks.
  std::map<FcmId, int> kept_of_origin;
  for (const graph::NodeIndex v : keep) {
    FCM_REQUIRE(v < nodes_.size(), "subset keeps an unknown SW node");
    ++kept_of_origin[nodes_[v].origin];
  }
  std::map<FcmId, int> next_replica;
  for (const graph::NodeIndex v : keep) {
    FCM_REQUIRE(new_index[v] == UINT32_MAX, "subset keeps a node twice");
    FCM_REQUIRE(sub.nodes_.empty() || keep[sub.nodes_.size() - 1] < v,
                "subset node list must be ascending");
    SwNode node = nodes_[v];
    new_index[v] = static_cast<std::uint32_t>(sub.nodes_.size());
    node.id = SwNodeId(new_index[v]);
    node.replica_index = next_replica[node.origin]++;
    node.attributes.replication =
        std::min(node.attributes.replication,
                 static_cast<core::ReplicationDegree>(
                     kept_of_origin.at(node.origin)));
    sub.graph_.add_node(node.name);
    sub.nodes_.push_back(std::move(node));
  }
  for (const graph::Edge& edge : graph_.edges()) {
    const std::uint32_t from = new_index[edge.from];
    const std::uint32_t to = new_index[edge.to];
    if (from == UINT32_MAX || to == UINT32_MAX) continue;
    sub.graph_.add_edge(from, to, edge.weight, edge.label);
  }
  return sub;
}

std::vector<SwProcess> SwGraph::processes() const {
  std::map<FcmId, std::size_t> index_of;
  std::vector<SwProcess> processes;
  for (graph::NodeIndex v = 0; v < nodes_.size(); ++v) {
    const SwNode& node = nodes_[v];
    auto [it, inserted] = index_of.try_emplace(node.origin, processes.size());
    if (inserted) {
      SwProcess process;
      process.origin = node.origin;
      process.name = node.name;
      process.replication = node.attributes.replication;
      process.criticality = node.attributes.criticality;
      // Each replica of a replicated process is named process + suffix.
      if (process.replication > 1) {
        process.name.resize(node.name.size() - replica_suffix(0).size());
      }
      processes.push_back(std::move(process));
    }
    processes[it->second].replicas.push_back(v);
  }
  return processes;
}

const SwNode& SwGraph::node(SwNodeId id) const {
  FCM_REQUIRE(id.valid() && id.value() < nodes_.size(), "unknown SW node");
  return nodes_[id.value()];
}

const SwNode& SwGraph::node(graph::NodeIndex index) const {
  FCM_REQUIRE(index < nodes_.size(), "SW node index out of range");
  return nodes_[index];
}

bool SwGraph::replicas(graph::NodeIndex a, graph::NodeIndex b) const {
  return a != b && node(a).origin == node(b).origin;
}

sched::Job SwGraph::job_of(graph::NodeIndex index) const {
  const SwNode& n = node(index);
  FCM_REQUIRE(n.attributes.timing.has_value(),
              "SW node " + n.name + " has no timing constraints");
  return n.attributes.timing->to_job(JobId(index), n.name);
}

bool SwGraph::has_timing(graph::NodeIndex index) const {
  return node(index).attributes.timing.has_value();
}

}  // namespace fcm::mapping
