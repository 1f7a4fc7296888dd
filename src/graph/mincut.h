// Global minimum cut (Stoer–Wagner) over the undirected projection of a
// Digraph.
//
// Heuristic H2 of the paper: "Find the min-cut of the graph. Divide the graph
// into two parts along the cut. Find the min-cut in each half and repeat the
// process, until the requisite number of components has been generated."
// Influence is directed; the cut works on symmetrized weights
// w{u,v} = w(u→v) + w(v→u), matching the paper's "mutual influence" notion.
#pragma once

#include <vector>

#include "graph/digraph.h"

namespace fcm::graph {

/// Result of a global min-cut: the partition (side membership true/false per
/// node) and the total symmetrized weight crossing it.
struct CutResult {
  std::vector<bool> in_first_side;
  double weight = 0.0;
};

/// Stoer–Wagner global min-cut on the undirected projection. Requires at
/// least two nodes and non-negative edge weights (InvalidArgument on a
/// negative or NaN weight). Disconnected graphs yield a zero-weight cut.
CutResult global_min_cut(const Digraph& g);

/// Stoer–Wagner restricted to a subset of nodes (used by the recursive-
/// bisection driver of H2). `subset` lists node indices of `g`; must contain
/// at least two nodes. Only edges with both ends in `subset` count, so only
/// their weights must be non-negative.
CutResult global_min_cut_subset(const Digraph& g,
                                const std::vector<NodeIndex>& subset);

}  // namespace fcm::graph
