// The SW allocation graph (§5.1) with replication expansion (§5.4, Fig. 4).
//
// "For SW, a weighted directed graph of process FCMs is created ... Nodes
// are the FCMs, with unidirectional edges weighted by influence. Replicas
// are connected by edges of weight 0; there is no edge in any other case of
// non-influence." Replication expansion: "Based on the fault tolerance
// requirements and need for, say, threefold replication, then an equivalent
// graph of three SW nodes with identical attributes and 0 edge weights is
// created ... Node p1 is replicated 3 times to satisfy its fault tolerance
// requirements, and edges with neighbors are also replicated."
#pragma once

#include <string>
#include <vector>

#include "common/ids.h"
#include "core/hierarchy.h"
#include "core/importance.h"
#include "core/influence.h"
#include "graph/digraph.h"
#include "sched/job.h"

namespace fcm::mapping {

/// One node of the SW allocation graph: a replica of a process FCM.
struct SwNode {
  SwNodeId id;
  std::string name;       ///< e.g. "p1a" for the first replica of p1
  FcmId origin;           ///< the process FCM this node replicates
  int replica_index = 0;  ///< 0-based replica number
  core::Attributes attributes;
  double importance = 0.0;
};

/// One process FCM as the SW graph expands it: its replica nodes and the FT
/// attributes that decide whether it delivers.
struct SwProcess {
  FcmId origin;
  std::string name;  ///< the process name, without a replica suffix
  std::vector<graph::NodeIndex> replicas;  ///< ascending node indices
  int replication = 1;
  core::Criticality criticality = 0;
};

/// The replication-expanded SW graph over process-level FCMs.
class SwGraph {
 public:
  /// Expands `processes` (process-level FCMs in `hierarchy`) into replica
  /// nodes, replicating influence edges across replicas and linking replica
  /// pairs with weight-0 edges labeled "replica". Influence edges come in
  /// ascending (source, target) process-list order. Throws InvalidArgument
  /// when a process is listed twice, and NotFound when a list of two or
  /// more processes names one that is not a member of `influence`.
  static SwGraph build(const core::FcmHierarchy& hierarchy,
                       const core::InfluenceModel& influence,
                       const std::vector<FcmId>& processes,
                       const core::ImportanceWeights& weights = {});

  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] const SwNode& node(SwNodeId id) const;
  [[nodiscard]] const SwNode& node(graph::NodeIndex index) const;
  [[nodiscard]] const std::vector<SwNode>& nodes() const noexcept {
    return nodes_;
  }

  /// One entry per process, in the order of each process's first replica
  /// node.
  [[nodiscard]] std::vector<SwProcess> processes() const;

  /// The influence digraph over replica nodes (node index k corresponds to
  /// nodes()[k]); includes the weight-0 replica links.
  [[nodiscard]] const graph::Digraph& influence_graph() const noexcept {
    return graph_;
  }

  /// True when the two nodes are replicas of the same process FCM — they
  /// "cannot be combined, as the nodes contain replicas of the same module,
  /// which must be mapped onto different HW nodes" (§5.2).
  [[nodiscard]] bool replicas(graph::NodeIndex a, graph::NodeIndex b) const;

  /// The induced subgraph over `keep` (ascending, duplicate-free node
  /// indices): every edge between two kept nodes — including the weight-0
  /// replica links — survives, ids renumber densely, and surviving replicas
  /// are *promoted*: replica indices renumber per process and the
  /// replication attribute clamps to the replicas actually kept, so a TMR
  /// process reduced to one copy no longer demands three distinct clusters.
  /// This is what the graceful-degradation replanner re-clusters after
  /// replicas are lost with their host processor.
  [[nodiscard]] SwGraph subset(const std::vector<graph::NodeIndex>& keep)
      const;

  /// The node's timing constraints as a scheduling job (per-node JobId =
  /// node index). Throws InvalidArgument when the FCM has no timing spec.
  [[nodiscard]] sched::Job job_of(graph::NodeIndex index) const;

  /// Whether the node carries timing constraints.
  [[nodiscard]] bool has_timing(graph::NodeIndex index) const;

 private:
  std::vector<SwNode> nodes_;
  graph::Digraph graph_;
};

/// Replica suffix for index 0,1,2,... -> "a","b","c",...,"z","aa",...
std::string replica_suffix(int index);

/// Fewest good replicas with which a process delivers (§5 FT semantics):
/// one for simplex and fail-stop duplex (`replication` <= 2), a strict
/// majority of its `replicas` mapped replicas for TMR and up, since the
/// voter cannot tell which minority is right.
[[nodiscard]] int min_ok_replicas(int replication, std::size_t replicas);

}  // namespace fcm::mapping
