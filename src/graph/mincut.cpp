#include "graph/mincut.h"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "common/error.h"

namespace fcm::graph {

namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

// Stoer–Wagner on the dense symmetric n×n matrix `w` (row-major), row i
// standing for subset[i]. A merge folds row `last` into row `prev`; the
// rows merged into row r form the list r, next[r], next[next[r]], ...,
// ending at tail[r].
//
// The cuts are bit-identical to the two-pass textbook loop kept in
// tests/graph/stoer_wagner_reference.h: a phase's unadded rows stay in
// ascending row order, so the first maximum by position is the largest
// key with ties to the smallest row; each key receives the picked rows'
// weights in pick order; and each merge makes the same additions.
CutResult stoer_wagner(std::vector<double> w,
                       const std::vector<NodeIndex>& subset,
                       std::size_t total_nodes) {
  const std::size_t n = subset.size();

  double best_weight = std::numeric_limits<double>::infinity();
  std::vector<std::size_t> best_side;
  best_side.reserve(n);

  std::vector<std::size_t> active(n);  // unmerged rows, ascending
  std::vector<std::size_t> next(n, kNone), tail(n);
  for (std::size_t i = 0; i < n; ++i) active[i] = tail[i] = i;
  // The current phase's unadded rows (ascending) and their keys.
  std::vector<std::size_t> rows(n);
  std::vector<double> keys(n);

  while (active.size() > 1) {
    // Maximum-adjacency ordering from the smallest row. Each round is one
    // pass: drop the pick, add its row to the other keys, find the next.
    std::size_t m = active.size();
    std::copy(active.begin(), active.end(), rows.begin());
    std::fill_n(keys.begin(), m, 0.0);
    std::size_t pick = 0;  // position of the round's pick in rows
    std::size_t prev = 0;
    while (m > 1) {
      prev = rows[pick];
      const double* const wp = &w[prev * n];
      double top_key = -std::numeric_limits<double>::infinity();
      std::size_t top = 0, kept = 0;
      for (std::size_t i = 0; i < m; ++i) {
        if (i == pick) continue;
        const std::size_t v = rows[i];
        const double key = keys[i] + wp[v];
        rows[kept] = v;
        keys[kept] = key;
        if (key > top_key) {
          top_key = key;
          top = kept;
        }
        ++kept;
      }
      pick = top;
      m = kept;
    }
    const std::size_t last = rows[0];

    // Cut-of-the-phase: the last added row vs. the rest.
    if (keys[0] < best_weight) {
      best_weight = keys[0];
      best_side.clear();
      for (std::size_t v = last; v != kNone; v = next[v]) {
        best_side.push_back(v);
      }
    }

    // Merge `last` into `prev`, dropping `last` from the active rows.
    double* const wa = &w[prev * n];
    const double* const wb = &w[last * n];
    std::size_t kept = 0;
    for (const std::size_t v : active) {
      if (v == last) continue;
      active[kept++] = v;
      if (v == prev) continue;
      wa[v] += wb[v];
      w[v * n + prev] = wa[v];
    }
    active.resize(kept);
    next[tail[prev]] = last;
    tail[prev] = tail[last];
  }

  CutResult result;
  result.weight = best_weight;
  result.in_first_side.assign(total_nodes, false);
  for (const std::size_t v : best_side) result.in_first_side[subset[v]] = true;
  return result;
}

}  // namespace

CutResult global_min_cut(const Digraph& g) {
  std::vector<NodeIndex> all(g.node_count());
  for (NodeIndex v = 0; v < g.node_count(); ++v) all[v] = v;
  return global_min_cut_subset(g, all);
}

CutResult global_min_cut_subset(const Digraph& g,
                                const std::vector<NodeIndex>& subset) {
  FCM_REQUIRE(subset.size() >= 2, "min-cut requires at least two nodes");

  // Map subset nodes to dense rows.
  std::vector<std::int64_t> row(g.node_count(), -1);
  for (std::size_t i = 0; i < subset.size(); ++i) {
    FCM_REQUIRE(subset[i] < g.node_count(), "subset node out of range");
    FCM_REQUIRE(row[subset[i]] < 0, "duplicate node in subset");
    row[subset[i]] = static_cast<std::int64_t>(i);
  }

  const std::size_t n = subset.size();
  std::vector<double> w(n * n, 0.0);
  for (const Edge& e : g.edges()) {
    const std::int64_t a = row[e.from];
    const std::int64_t b = row[e.to];
    if (a < 0 || b < 0) continue;
    // Stoer–Wagner holds only for non-negative weights; NaN fails too.
    FCM_REQUIRE(e.weight >= 0.0, "min-cut edge weights must be non-negative");
    // Symmetrize: mutual influence is the sum of both directions.
    const auto ua = static_cast<std::size_t>(a);
    const auto ub = static_cast<std::size_t>(b);
    w[ua * n + ub] += e.weight;
    w[ub * n + ua] += e.weight;
  }

  return stoer_wagner(std::move(w), subset, g.node_count());
}

}  // namespace fcm::graph
