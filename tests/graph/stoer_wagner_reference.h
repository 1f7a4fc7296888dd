// Reference Stoer–Wagner: the loop graph::global_min_cut_subset ran before
// it moved onto one flat matrix — a vector-of-vectors weight matrix, a
// member vector per row that each merge appends to, and two passes per
// maximum-adjacency round (pick the first maximum key, then add the
// picked row to every unadded key). Kept verbatim as the oracle the
// library kernel must match bit for bit: the same cut weight bits and the
// same side. It does not validate weights; feed it non-negative ones.
#pragma once

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/error.h"
#include "graph/digraph.h"
#include "graph/mincut.h"

namespace fcm::graph::reference {

// Stoer–Wagner on a dense symmetric weight matrix. `labels[i]` carries the
// set of original node indices merged into row i.
inline CutResult stoer_wagner(std::vector<std::vector<double>> w,
                              std::vector<std::vector<NodeIndex>> labels,
                              std::size_t total_nodes) {
  const std::size_t n = w.size();
  FCM_REQUIRE(n >= 2, "min-cut requires at least two nodes");

  double best_weight = std::numeric_limits<double>::infinity();
  std::vector<NodeIndex> best_side;

  std::vector<std::size_t> active(n);
  for (std::size_t i = 0; i < n; ++i) active[i] = i;

  while (active.size() > 1) {
    // Maximum-adjacency ordering starting from active[0].
    std::vector<double> key(active.size(), 0.0);
    std::vector<bool> added(active.size(), false);
    std::size_t prev = 0, last = 0;
    for (std::size_t round = 0; round < active.size(); ++round) {
      std::size_t pick = active.size();
      double best_key = -1.0;
      for (std::size_t i = 0; i < active.size(); ++i) {
        if (!added[i] && key[i] > best_key) {
          best_key = key[i];
          pick = i;
        }
      }
      added[pick] = true;
      prev = last;
      last = pick;
      for (std::size_t i = 0; i < active.size(); ++i) {
        if (!added[i]) key[i] += w[active[pick]][active[i]];
      }
    }

    // Cut-of-the-phase: last added node vs. the rest.
    const double phase_weight = key[last];
    if (phase_weight < best_weight) {
      best_weight = phase_weight;
      best_side = labels[active[last]];
    }

    // Merge `last` into `prev`.
    const std::size_t a = active[prev];
    const std::size_t b = active[last];
    for (std::size_t i = 0; i < active.size(); ++i) {
      const std::size_t v = active[i];
      if (v == a || v == b) continue;
      w[a][v] += w[b][v];
      w[v][a] = w[a][v];
    }
    labels[a].insert(labels[a].end(), labels[b].begin(), labels[b].end());
    active.erase(active.begin() + static_cast<std::ptrdiff_t>(last));
  }

  CutResult result;
  result.weight = best_weight;
  result.in_first_side.assign(total_nodes, false);
  for (const NodeIndex v : best_side) result.in_first_side[v] = true;
  return result;
}

inline CutResult global_min_cut_subset(const Digraph& g,
                                       const std::vector<NodeIndex>& subset) {
  FCM_REQUIRE(subset.size() >= 2, "min-cut requires at least two nodes");

  // Map subset nodes to dense rows.
  std::vector<std::int64_t> row(g.node_count(), -1);
  for (std::size_t i = 0; i < subset.size(); ++i) {
    FCM_REQUIRE(subset[i] < g.node_count(), "subset node out of range");
    FCM_REQUIRE(row[subset[i]] < 0, "duplicate node in subset");
    row[subset[i]] = static_cast<std::int64_t>(i);
  }

  std::vector<std::vector<double>> w(
      subset.size(), std::vector<double>(subset.size(), 0.0));
  for (const Edge& e : g.edges()) {
    const std::int64_t a = row[e.from];
    const std::int64_t b = row[e.to];
    if (a < 0 || b < 0) continue;
    // Symmetrize: mutual influence is the sum of both directions.
    w[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] += e.weight;
    w[static_cast<std::size_t>(b)][static_cast<std::size_t>(a)] += e.weight;
  }

  std::vector<std::vector<NodeIndex>> labels(subset.size());
  for (std::size_t i = 0; i < subset.size(); ++i) labels[i] = {subset[i]};

  return stoer_wagner(std::move(w), std::move(labels), g.node_count());
}

}  // namespace fcm::graph::reference
