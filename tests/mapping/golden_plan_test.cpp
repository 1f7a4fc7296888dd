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

}  // namespace
}  // namespace fcm::serve
