// Golden plan bytes: plans pinned across commits, not only across threads.
//
// The files under tests/mapping/golden/ are `fcm_tool plan` output captured
// before the SW-graph build, placement and dilation paths were rewritten
// for scale. Every plan rendered through QueryEngine::one_shot (what
// `fcm_tool plan` prints) must still match them byte for byte. Regenerate
// them only for an intended output change, from the golden directory:
//   fcm_tool plan [--heuristic H] --approach A > example98_<H|best>_<A>.txt
//   fcm_tool plan --synthetic 512 --seed 3 --hw 170 --heuristic h1h
//       --approach A > synthetic-512-3_h1h_<A>.txt
// the greedy-merge files (captured before the merge loop kept its
// clusters as per-representative state) and the min-cut files (captured
// before Stoer–Wagner moved onto one flat matrix) as
//   fcm_tool plan --synthetic P --seed S --hw N --heuristic H
//       --approach A > synthetic-P-S_<H>_<A>.txt
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "serve/protocol.h"
#include "serve/query.h"

namespace fcm::serve {
namespace {

std::string golden(const std::string& name) {
  std::ifstream in(std::string(FCM_GOLDEN_DIR) + "/" + name);
  EXPECT_TRUE(in.good()) << "missing golden file " << name;
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

std::string plan(const std::string& payload) {
  return QueryEngine::one_shot(protocol::Opcode::kMapping, payload).text;
}

TEST(GoldenPlans, Example98EveryHeuristicAndApproach) {
  for (const std::string heuristic :
       {"h1", "h1r", "h1h", "h2", "h3", "crit", "timing", "best"}) {
    for (const std::string approach : {"a", "b"}) {
      const std::string payload =
          (heuristic == "best" ? "" : "heuristic=" + heuristic + " ") +
          "approach=" + approach;
      EXPECT_EQ(plan(payload),
                golden("example98_" + heuristic + "_" + approach + ".txt"))
          << payload;
    }
  }
}

TEST(GoldenPlans, Synthetic512HierarchicalH1) {
  for (const std::string approach : {"a", "b"}) {
    EXPECT_EQ(plan("model=synthetic-512-3 hw=170 heuristic=h1h approach=" +
                   approach),
              golden("synthetic-512-3_h1h_" + approach + ".txt"))
        << approach;
  }
}

// The greedy merge loop shared by H1, hierarchical H1 and H2's repair
// phase, on shapes the files above do not reach.
std::string synthetic_plan(int processes, int seed, int hw,
                           const std::string& heuristic,
                           const std::string& approach) {
  return plan("model=synthetic-" + std::to_string(processes) + "-" +
              std::to_string(seed) + " hw=" + std::to_string(hw) +
              " heuristic=" + heuristic + " approach=" + approach);
}

std::string synthetic_golden(int processes, int seed,
                             const std::string& heuristic,
                             const std::string& approach) {
  return golden("synthetic-" + std::to_string(processes) + "-" +
                std::to_string(seed) + "_" + heuristic + "_" + approach +
                ".txt");
}

// 771 SW nodes: one part goes through the Stoer-Wagner split, and about a
// third of the merges are zero-mutual fallbacks.
TEST(GoldenPlans, Synthetic512Seed1HierarchicalH1) {
  for (const std::string approach : {"a", "b"}) {
    EXPECT_EQ(synthetic_plan(512, 1, 170, "h1h", approach),
              synthetic_golden(512, 1, "h1h", approach))
        << approach;
  }
}

// Flat pair-heap H1 over 400 SW nodes, with zero-mutual fallbacks.
TEST(GoldenPlans, Synthetic256FlatH1) {
  EXPECT_EQ(synthetic_plan(256, 1, 32, "h1", "a"),
            synthetic_golden(256, 1, "h1", "a"));
}

// Two parts and a final merge across them.
TEST(GoldenPlans, Synthetic128HierarchicalH1) {
  EXPECT_EQ(synthetic_plan(128, 1, 42, "h1h", "a"),
            synthetic_golden(128, 1, "h1h", "a"));
}

// H2's repair phase re-merges through the same greedy loop.
TEST(GoldenPlans, Synthetic64H2RepairMerges) {
  EXPECT_EQ(synthetic_plan(64, 1, 21, "h2", "b"),
            synthetic_golden(64, 1, "h2", "b"));
}

// About 190 SW nodes: H2 makes about as many Stoer–Wagner cuts, most of
// them peeling one node off a part.
TEST(GoldenPlans, Synthetic128H2MinCut) {
  EXPECT_EQ(synthetic_plan(128, 1, 42, "h2", "a"),
            synthetic_golden(128, 1, "h2", "a"));
}

// The slowest h1h plan of synthetic-512 seeds 1–60: its halving spends
// most of its time in min-cuts of parts of at most 192 nodes.
TEST(GoldenPlans, Synthetic512Seed18HierarchicalH1) {
  EXPECT_EQ(synthetic_plan(512, 18, 170, "h1h", "a"),
            synthetic_golden(512, 18, "h1h", "a"));
}

}  // namespace
}  // namespace fcm::serve
