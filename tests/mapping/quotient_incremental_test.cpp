// Property tests for incremental quotient maintenance: a QuotientCache fed
// a merge sequence must stay bitwise-equal to a cache freshly reset on the
// merged partition (a rebuild with no shared history) — same mutual
// influence for every live pair and the same neighbor index — and to the
// dense Eq. 4 table of h1_scan_reference.h. Run at 64 and 512 processes
// so the delta path is exercised both before and after the quotient graph
// densifies.
#include "mapping/clustering.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/synthetic.h"
#include "h1_scan_reference.h"

namespace fcm::mapping {
namespace {

std::vector<graph::NodeIndex> live_reps(const graph::Partition& partition) {
  std::vector<graph::NodeIndex> reps;
  for (const auto& members : partition.groups()) {
    reps.push_back(members.front());
  }
  std::sort(reps.begin(), reps.end());
  return reps;
}

// K seeded-random merges applied to one cache. After every merge a cache
// freshly reset on the current partition must agree on the merged
// cluster's neighbor list, its neighbors' lists, and the merged row's
// mutual values; at the end the whole live-pair table is compared with a
// fresh cache and with the dense reference.
void run_differential(std::size_t processes, int merges,
                      std::uint64_t seed) {
  const core::synthetic::System sys =
      core::synthetic::make_system(processes, seed);
  const SwGraph sw =
      SwGraph::build(sys.hierarchy, sys.influence, sys.processes);

  graph::Partition partition = graph::Partition::identity(sw.node_count());
  ClusterEngine::QuotientCache incremental;
  incremental.reset(sw, partition);

  Rng rng(seed * 7919 + 17);
  for (int step = 0; step < merges && partition.cluster_count > 2; ++step) {
    const std::vector<graph::NodeIndex> reps = live_reps(partition);
    const std::size_t a =
        rng.below(static_cast<std::uint32_t>(reps.size()));
    std::size_t b = rng.below(static_cast<std::uint32_t>(reps.size()));
    if (b == a) b = (a + 1) % reps.size();
    const graph::NodeIndex rep_a = std::min(reps[a], reps[b]);
    const graph::NodeIndex rep_b = std::max(reps[a], reps[b]);

    incremental.merge(rep_a, rep_b);
    partition.merge(rep_a, rep_b);
    ClusterEngine::QuotientCache fresh;
    fresh.reset(sw, partition);

    const graph::NodeIndex merged = rep_a;
    const auto& neighbors = incremental.neighbors(merged);
    ASSERT_EQ(neighbors, fresh.neighbors(merged))
        << "neighbor index diverged at step " << step;
    for (const graph::NodeIndex c : neighbors) {
      ASSERT_EQ(incremental.neighbors(c), fresh.neighbors(c))
          << "neighbor index diverged at step " << step;
      const graph::NodeIndex lo = std::min(merged, c);
      const graph::NodeIndex hi = std::max(merged, c);
      ASSERT_EQ(incremental.mutual(lo, hi), fresh.mutual(lo, hi))
          << "mutual diverged at step " << step;
    }
  }

  ClusterEngine::QuotientCache fresh;
  fresh.reset(sw, partition);
  const std::vector<double> dense =
      reference::directed_influence(sw, partition);
  const std::size_t k = partition.cluster_count;
  const std::vector<graph::NodeIndex> reps = live_reps(partition);
  for (std::size_t i = 0; i < reps.size(); ++i) {
    ASSERT_EQ(incremental.neighbors(reps[i]), fresh.neighbors(reps[i]));
    for (std::size_t j = i + 1; j < reps.size(); ++j) {
      const double m = incremental.mutual(reps[i], reps[j]);
      ASSERT_EQ(m, fresh.mutual(reps[i], reps[j]))
          << "pair (" << reps[i] << ", " << reps[j] << ")";
      // Cluster indices ascend with representatives.
      ASSERT_EQ(m, dense[i * k + j] + dense[j * k + i])
          << "pair (" << reps[i] << ", " << reps[j] << ")";
    }
  }
}

TEST(QuotientIncremental, MatchesRebuildAt64Processes) {
  run_differential(64, 40, 3);
}

TEST(QuotientIncremental, MatchesRebuildAt64ProcessesSecondSeed) {
  run_differential(64, 40, 11);
}

TEST(QuotientIncremental, MatchesRebuildAt512Processes) {
  run_differential(512, 300, 42);
}

}  // namespace
}  // namespace fcm::mapping
