// Golden assessment bytes: Monte Carlo, rare-event, adversary, replan and
// campaign reports pinned across commits, not only across threads.
//
// The files under tests/resilience/golden/ were captured before the two
// samplers shared one mission trial and the resilience layer shared one
// process view. The one-shot cases are exactly what `fcm_tool` prints:
//   FCM_THREADS=1 fcm_tool depend [--hw N] [--q P] [--trials N]
//   fcm_tool resilience --rare-event [--synthetic P] [--hw N] [--q P]
//       [--tilt Q]
//   fcm_tool resilience --adversary [--synthetic P --hw N --restarts R
//       --iterations I]
//   fcm_tool replan [--hw N] --fail LIST [--heuristic H --approach A]
//   fcm_tool resilience [--trials N --seed S]
// The sampler cases with intrinsic SW faults and the overloaded-host
// campaign slice have no CLI path; they render the library reports
// directly. Regenerate the files only for an intended output change.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/example98.h"
#include "core/synthetic.h"
#include "dependability/montecarlo.h"
#include "mapping/planner.h"
#include "resilience/campaign.h"
#include "resilience/rare_event.h"
#include "serve/protocol.h"
#include "serve/query.h"

namespace fcm::resilience {
namespace {

using serve::protocol::Opcode;

std::string golden(const std::string& name) {
  std::ifstream in(std::string(FCM_ASSESSMENT_GOLDEN_DIR) + "/" + name);
  EXPECT_TRUE(in.good()) << "missing golden file " << name;
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

std::string one_shot(Opcode opcode, const std::string& payload) {
  return serve::QueryEngine::one_shot(opcode, payload).text;
}

struct Case {
  const char* payload;
  const char* file;
};

void expect_one_shot(Opcode opcode, std::initializer_list<Case> cases) {
  for (const Case& c : cases) {
    EXPECT_EQ(one_shot(opcode, c.payload), golden(c.file)) << c.payload;
  }
}

TEST(GoldenAssessments, Depend) {
  // The report prints its worker count, which FCM_THREADS selects; the
  // files hold the one-lane run.
  const char* saved = std::getenv("FCM_THREADS");
  const std::string restore = saved != nullptr ? saved : "";
  ::setenv("FCM_THREADS", "1", 1);
  expect_one_shot(Opcode::kDepend,
                  {{"", "depend.txt"},
                   {"q=0.2 trials=5000", "depend_q0.2_t5000.txt"},
                   {"hw=6 q=0.1 trials=3000", "depend_hw6_q0.1_t3000.txt"}});
  if (saved != nullptr) {
    ::setenv("FCM_THREADS", restore.c_str(), 1);
  } else {
    ::unsetenv("FCM_THREADS");
  }
}

TEST(GoldenAssessments, RareEvent) {
  expect_one_shot(Opcode::kRareEvent,
                  {{"", "rare_event.json"},
                   {"q=0.01", "rare_event_q0.01.json"},
                   {"q=0.001 tilt=0.2", "rare_event_q0.001_tilt0.2.json"},
                   {"model=synthetic-64-42 hw=21 q=0.01",
                    "rare_event_synthetic-64-42_hw21_q0.01.json"}});
}

TEST(GoldenAssessments, Adversary) {
  expect_one_shot(Opcode::kAdversary,
                  {{"", "adversary.json"},
                   {"model=synthetic-32-42 hw=12 restarts=2 iterations=4",
                    "adversary_synthetic-32-42_hw12.json"}});
}

TEST(GoldenAssessments, Replan) {
  expect_one_shot(Opcode::kReplan,
                  {{"fail=0,2", "replan_fail02.txt"},
                   {"fail=0,1 heuristic=h2 approach=b",
                    "replan_fail01_h2_b.txt"},
                   {"hw=4 fail=0,1,2", "replan_hw4_fail012.txt"}});
}

struct Mapped {
  core::example98::Instance instance = core::example98::make_instance();
  mapping::HwGraph hw;
  mapping::SwGraph sw;
  mapping::Plan plan;

  explicit Mapped(std::size_t hw_nodes)
      : hw(mapping::HwGraph::complete(hw_nodes)) {
    mapping::IntegrationPlanner planner(instance.hierarchy, instance.influence,
                                        instance.processes, hw);
    plan = planner.best_plan();
    sw = planner.sw_graph();
  }
};

// What `fcm_tool resilience` prints: the standard grid of the best plan.
std::string campaign_json(std::size_t hw_nodes, std::uint32_t trials,
                          std::uint64_t seed) {
  const Mapped m(hw_nodes);
  const graph::Partition& partition = m.plan.clustering.partition;
  CampaignOptions options;
  options.trials = trials;
  const ResilienceReport report = run_campaign(
      m.sw, partition, m.plan.assignment, m.hw,
      standard_grid(m.sw, partition, m.plan.assignment, m.hw), seed,
      options);
  return to_json(report) + "\n";
}

TEST(GoldenAssessments, Campaign) {
  EXPECT_EQ(campaign_json(core::example98::kHwNodes, 96, 2026),
            golden("campaign.json"));
  EXPECT_EQ(campaign_json(6, 64, 7), golden("campaign_hw6_t64_seed7.json"));
}

// The example98 campaigns never push a host past utilisation 1. The
// synthetic-32-42 best plan at 12 HW nodes stacks most replicas on one host
// (1 ms of work per 20 ms period each), so its ready queue runs deep and
// about half its deadlines miss even without faults: this pins the
// simulator's dispatch order where it has many jobs to order. A slice of
// the standard grid keeps the file small: the crash of that host (it
// abandons the deep queue), the babbler, the region corruption and the
// combined crash-plus-burst.
TEST(GoldenAssessments, CampaignOnAnOverloadedHost) {
  const core::synthetic::System sys = core::synthetic::make_system(32, 42);
  const mapping::HwGraph hw = mapping::HwGraph::complete(12);
  const mapping::IntegrationPlanner planner(sys.hierarchy, sys.influence,
                                            sys.processes, hw);
  const mapping::Plan plan = planner.best_plan();
  const mapping::SwGraph& sw = planner.sw_graph();
  const graph::Partition& partition = plan.clustering.partition;

  std::vector<std::size_t> hosted(hw.node_count(), 0);
  for (graph::NodeIndex v = 0; v < sw.node_count(); ++v) {
    ++hosted[plan.assignment.host(partition.cluster_of[v]).value()];
  }
  const auto busiest = static_cast<std::uint32_t>(
      std::max_element(hosted.begin(), hosted.end()) - hosted.begin());
  ASSERT_GT(hosted[busiest], 20u) << "the busiest host is not overloaded";

  const std::string crash = "crash-" + hw.node(HwNodeId(busiest)).name;
  std::vector<Scenario> slice;
  for (Scenario& scenario :
       standard_grid(sw, partition, plan.assignment, hw)) {
    const std::string& name = scenario.name;
    if (name == crash || name == "crash+burst" ||
        name.rfind("babble-", 0) == 0 || name.rfind("corrupt-", 0) == 0) {
      slice.push_back(std::move(scenario));
    }
  }
  ASSERT_EQ(slice.size(), 4u);

  CampaignOptions options;
  options.trials = 16;
  EXPECT_EQ(to_json(run_campaign(sw, partition, plan.assignment, hw, slice,
                                 2026, options)) +
                "\n",
            golden("campaign_synthetic-32-42_hw12_t16.json"));
}

std::string render(const dependability::DependabilityReport& report) {
  std::string text;
  char line[96];
  for (const double survival : report.process_survival) {
    std::snprintf(line, sizeof(line), "process %.17g\n", survival);
    text += line;
  }
  std::snprintf(line, sizeof(line), "system %.17g\ncritical %.17g\n",
                report.system_survival, report.critical_survival);
  text += line;
  std::snprintf(line, sizeof(line), "loss %.17g\n",
                report.expected_criticality_loss);
  text += line;
  return text;
}

// Intrinsic SW faults draw a lottery per live replica, and propagation
// samples edges: the two draws the CLI paths (sw_fault 0) never make.
TEST(GoldenAssessments, SamplersWithSoftwareFaults) {
  const Mapped m(core::example98::kHwNodes);
  for (const bool propagate : {true, false}) {
    const std::string suffix = propagate ? "" : "_no_propagation";
    dependability::MissionModel mission;
    mission.hw_failure = Probability(0.05);
    mission.sw_fault = Probability(0.02);
    mission.propagate = propagate;
    mission.trials = 6000;
    mission.trials_per_block = 1000;
    EXPECT_EQ(render(dependability::evaluate_mapping(
                  m.sw, m.plan.clustering, m.plan.assignment, m.hw, mission,
                  11)),
              golden("montecarlo_sw0.02" + suffix + ".txt"))
        << propagate;

    RareEventOptions options;
    options.hw_failure = Probability(0.01);
    options.sw_fault = Probability(0.002);
    options.propagate = propagate;
    options.trials = 3000;
    EXPECT_EQ(to_json(estimate_rare_event(m.sw, m.plan.clustering,
                                          m.plan.assignment, m.hw, options,
                                          11)) +
                  "\n",
              golden("rare_event_sw0.002" + suffix + ".json"))
        << propagate;
  }
}

}  // namespace
}  // namespace fcm::resilience
