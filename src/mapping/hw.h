// The HW resource graph.
//
// "To facilitate the mapping, two graphs are created, one for SW FCMs, and
// one for available HW resources, which have been structured using a HW FCR
// model. For HW, an interconnection graph is used." (§5.1). The paper
// assumes homogeneous processors with access to equivalent resources (§2);
// the model still carries per-node capacities and named special resources so
// the "need for a resource present on only one processor" tradeoff of §6 can
// be expressed.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/ids.h"

namespace fcm::mapping {

/// One processing node of the HW platform (a HW fault containment region).
struct HwNode {
  HwNodeId id;
  std::string name;
  /// Memory capacity in abstract units; 0 = unconstrained.
  double memory = 0.0;
  /// Named special resources present at this node (e.g. "sensor-bus").
  std::set<std::string> resources;
};

/// One end of a bidirectional link, as seen from the other end.
struct HwLink {
  std::uint32_t to = 0;  ///< the neighbouring node's id value
  double bandwidth = 0.0;
};

/// The HW interconnection graph: nodes plus bidirectional links carrying a
/// bandwidth (abstract units). Hop distance is used for dilation-aware
/// mapping.
class HwGraph {
 public:
  HwGraph() = default;

  /// A strongly connected network of `n` homogeneous nodes — the §6
  /// platform ("assume there is a strongly connected network with N HW
  /// nodes"). Complete graph, unit bandwidth.
  static HwGraph complete(int n, double link_bandwidth = 1.0);

  HwNodeId add_node(std::string name, double memory = 0.0,
                    std::set<std::string> resources = {});

  /// Bidirectional link with the given bandwidth. Throws InvalidArgument
  /// for an unknown node, a self-link, a duplicate link, or a non-positive
  /// bandwidth.
  void add_link(HwNodeId a, HwNodeId b, double bandwidth);

  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] const HwNode& node(HwNodeId id) const;
  [[nodiscard]] const std::vector<HwNode>& nodes() const noexcept {
    return nodes_;
  }

  /// The node's links, ascending by neighbour.
  [[nodiscard]] const std::vector<HwLink>& links(HwNodeId id) const;

  [[nodiscard]] bool linked(HwNodeId a, HwNodeId b) const;

  /// Minimum hop count between two nodes (0 for a==b); throws Infeasible
  /// when disconnected. One BFS per call: callers with many lookups build
  /// a HopTable instead.
  [[nodiscard]] int hop_distance(HwNodeId a, HwNodeId b) const;

  /// Every ordered node pair mutually reachable.
  [[nodiscard]] bool strongly_connected() const;

 private:
  friend class HopTable;

  /// Hop counts from `source` into dist[0, node_count()) (-1 where
  /// unreachable), with `queue` as scratch; allocates nothing once `queue`
  /// holds node_count() entries. Stops as soon as every node is reached, so
  /// a source in a complete network costs O(node_count()).
  void bfs(std::uint32_t source, int* dist,
           std::vector<std::uint32_t>& queue) const;

  /// The Infeasible error for an unreachable pair.
  [[noreturn]] void throw_disconnected(HwNodeId a, HwNodeId b) const;

  std::vector<HwNode> nodes_;
  std::vector<std::vector<HwLink>> links_;
};

/// Hop counts between every ordered node pair of one platform, computed
/// once up front so that placement and dilation read a table instead of
/// running a BFS per lookup. The table references `hw`, which must outlive
/// it and must not change.
class HopTable {
 public:
  explicit HopTable(const HwGraph& hw);
  HopTable(const HwGraph&&) = delete;  // would outlive a temporary graph

  /// hw.hop_distance(a, b) for two known nodes, same Infeasible error.
  [[nodiscard]] int operator()(HwNodeId a, HwNodeId b) const {
    const int hops = hops_[a.value() * n_ + b.value()];
    if (hops < 0) hw_.throw_disconnected(a, b);
    return hops;
  }

 private:
  const HwGraph& hw_;
  std::size_t n_;
  std::vector<int> hops_;  // row-major, -1 = unreachable
};

}  // namespace fcm::mapping
