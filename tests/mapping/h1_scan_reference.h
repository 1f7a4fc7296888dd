// Test-side reference for ClusterEngine's greedy merge loop (flat H1,
// hierarchical H1's cross-part merge, H2's repair phase): the O(k²) scan
// the loop was first written as. Every step recomputes each cluster pair's
// Eq. 4 mutual influence from the SW edges, then merges the first pair in
// ascending cluster-index order with the highest value that
// ClusterEngine::can_combine accepts. The engine's pair heap must
// reproduce its merge sequence, step log, partition and Infeasible
// message exactly.
//
// `undo_merges` recovers the partition a logged merge run started from,
// so the scan can be replayed from the engine loop's own start partition
// when that partition is not the identity.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "mapping/clustering.h"

namespace fcm::mapping::reference {

/// Step-log flavor, matching the engine's.
enum class ScanStyle : std::uint8_t {
  kCombine,      ///< H1: "combine A + B (mutual influence m)"
  kRepairMerge,  ///< H2 repair: "repair-merge A + B"
};

struct ScanOutcome {
  graph::Partition partition;
  std::vector<std::string> steps;
  /// Set when no combinable pair remained above the target; `message` is
  /// then the engine's Infeasible text.
  bool infeasible = false;
  std::string message;
};

/// Eq. 4 over every ordered cluster pair of `partition`, as a dense
/// k×k matrix: complements multiplied in ascending SW edge order, replica
/// links excluded.
inline std::vector<double> directed_influence(
    const SwGraph& sw, const graph::Partition& partition) {
  const std::size_t k = partition.cluster_count;
  std::vector<double> none(k * k, 1.0);
  for (const graph::Edge& e : sw.influence_graph().edges()) {
    if (sw.replicas(e.from, e.to)) continue;
    const std::uint32_t a = partition.cluster_of[e.from];
    const std::uint32_t b = partition.cluster_of[e.to];
    if (a != b) none[a * k + b] *= 1.0 - e.weight;
  }
  for (double& value : none) value = std::clamp(1.0 - value, 0.0, 1.0);
  return none;
}

/// ClusteringResult::cross_cluster_influence of `partition`: the quotient
/// edge weights summed in the same ascending (from, to) order.
inline double cross_cluster_influence(const SwGraph& sw,
                                      const graph::Partition& partition) {
  double sum = 0.0;
  for (const double w : directed_influence(sw, partition)) sum += w;
  return sum;
}

inline std::string joined_names(const SwGraph& sw,
                                const std::vector<graph::NodeIndex>& members) {
  std::string out;
  for (const graph::NodeIndex m : members) {
    if (!out.empty()) out += ',';
    out += sw.node(m).name;
  }
  return out;
}

/// Runs the scan from `partition` down to `options.target_clusters`.
inline ScanOutcome scan_merge_to_target(const SwGraph& sw,
                                        const ClusteringOptions& options,
                                        graph::Partition partition,
                                        ScanStyle style) {
  ClusterEngine checker(sw, options);  // only its can_combine is used
  ScanOutcome out;
  while (partition.cluster_count > options.target_clusters) {
    const std::size_t k = partition.cluster_count;
    const auto groups = partition.groups();
    const std::vector<double> influence = directed_influence(sw, partition);
    double best = -1.0;
    std::uint32_t best_a = 0, best_b = 0;
    for (std::uint32_t a = 0; a < k; ++a) {
      for (std::uint32_t b = a + 1; b < k; ++b) {
        const double m = influence[a * k + b] + influence[b * k + a];
        if (m > best && checker.can_combine(partition, a, b)) {
          best = m;
          best_a = a;
          best_b = b;
        }
      }
    }
    if (best < 0.0) {
      out.infeasible = true;
      out.message =
          style == ScanStyle::kCombine
              ? "H1: no combinable cluster pair remains at " +
                    std::to_string(k) + " clusters (target " +
                    std::to_string(options.target_clusters) + ")"
              : "H2: repair phase cannot re-merge to the target";
      break;
    }
    std::ostringstream step;
    if (style == ScanStyle::kCombine) {
      step << "combine " << joined_names(sw, groups[best_a]) << " + "
           << joined_names(sw, groups[best_b]) << " (mutual influence "
           << best << ")";
    } else {
      step << "repair-merge " << joined_names(sw, groups[best_a]) << " + "
           << joined_names(sw, groups[best_b]);
    }
    out.steps.push_back(step.str());
    partition.merge(groups[best_a].front(), groups[best_b].front());
  }
  out.partition = std::move(partition);
  return out;
}

/// The steps of `steps` that start with `prefix` (e.g. "combine " selects
/// h1h's cross-part merges, not its "part i: ..." lines).
inline std::vector<std::string> steps_starting_with(
    const std::vector<std::string>& steps, const std::string& prefix) {
  std::vector<std::string> out;
  for (const std::string& step : steps) {
    if (step.rfind(prefix, 0) == 0) out.push_back(step);
  }
  return out;
}

/// `final_partition` with the logged merges undone in reverse. Each step
/// reads "<verb> A + B[ (...)]" where A and B are comma-joined member
/// names; undoing it splits B's members back out of A ∪ B. Clusters of the
/// result are numbered by ascending smallest member, as Partition::merge
/// numbers them.
inline graph::Partition undo_merges(const SwGraph& sw,
                                    const graph::Partition& final_partition,
                                    const std::vector<std::string>& merges) {
  std::map<std::string, graph::NodeIndex> node_of;
  for (graph::NodeIndex v = 0; v < sw.node_count(); ++v) {
    node_of.emplace(sw.node(v).name, v);
  }
  std::vector<std::uint32_t> label = final_partition.cluster_of;
  auto next_label = static_cast<std::uint32_t>(final_partition.cluster_count);
  for (auto it = merges.rbegin(); it != merges.rend(); ++it) {
    const std::size_t plus = it->find(" + ");
    FCM_REQUIRE(plus != std::string::npos, "not a merge step: " + *it);
    const std::size_t end = it->find(" (", plus);
    std::istringstream names(it->substr(
        plus + 3, end == std::string::npos ? std::string::npos
                                           : end - plus - 3));
    for (std::string name; std::getline(names, name, ',');) {
      label[node_of.at(name)] = next_label;
    }
    ++next_label;
  }
  graph::Partition start;
  std::map<std::uint32_t, std::uint32_t> renumbered;
  for (const std::uint32_t l : label) {
    const auto [slot, fresh] = renumbered.emplace(l, start.cluster_count);
    if (fresh) ++start.cluster_count;
    start.cluster_of.push_back(slot->second);
  }
  return start;
}

}  // namespace fcm::mapping::reference
