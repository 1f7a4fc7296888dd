// InfluenceModel is a read-only value: its const methods never write, so
// one model may be read from several threads at once. The daemon relies on
// this — a kInfluence query (to_graph + summarize_influence) can run on one
// serve worker while another builds a platform (SwGraph::build) from the
// same model. Under -DFCM_SANITIZE=thread this test reports any write
// hidden behind the const interface; in every build the concurrent results
// must be byte-identical to a single-threaded reference.
#include <gtest/gtest.h>

#include <latch>
#include <sstream>
#include <string>
#include <thread>

#include "core/example98.h"
#include "core/influence_analysis.h"
#include "graph/digraph.h"
#include "mapping/swgraph.h"

namespace fcm {
namespace {

void render(std::ostream& os, const graph::Digraph& g) {
  for (graph::NodeIndex n = 0; n < g.node_count(); ++n) {
    os << "node " << g.name(n) << '\n';
  }
  for (const graph::Edge& e : g.edges()) {
    os << "edge " << e.from << ' ' << e.to << ' ' << e.weight << ' '
       << e.label << '\n';
  }
}

std::string render_sw(const mapping::SwGraph& sw) {
  std::ostringstream os;
  os << std::hexfloat;
  for (const mapping::SwNode& node : sw.nodes()) {
    os << "sw " << node.name << ' ' << node.importance << '\n';
  }
  render(os, sw.influence_graph());
  return os.str();
}

std::string render_report(const core::InfluenceModel& model) {
  std::ostringstream os;
  os << std::hexfloat;
  render(os, model.to_graph());
  for (const core::InfluenceSummary& s : core::summarize_influence(model)) {
    os << "summary " << s.name << ' ' << s.out_influence << ' '
       << s.in_influence << '\n';
  }
  return os.str();
}

TEST(InfluenceModelConcurrency, SwGraphBuildAndInfluenceReportShareOneModel) {
  constexpr int kRounds = 20;
  constexpr int kIterations = 25;
  std::string sw_reference;
  std::string report_reference;
  {
    const core::example98::Instance instance = core::example98::make_instance();
    sw_reference = render_sw(mapping::SwGraph::build(
        instance.hierarchy, instance.influence, instance.processes));
    report_reference = render_report(instance.influence);
  }

  for (int round = 0; round < kRounds; ++round) {
    // A fresh model per round, so both threads start on one nobody has
    // queried yet, released together by the latch.
    const core::example98::Instance instance = core::example98::make_instance();
    std::latch start(2);
    int sw_mismatches = 0;
    int report_mismatches = 0;
    std::thread builder([&] {
      start.arrive_and_wait();
      for (int i = 0; i < kIterations; ++i) {
        const mapping::SwGraph sw = mapping::SwGraph::build(
            instance.hierarchy, instance.influence, instance.processes);
        if (render_sw(sw) != sw_reference) ++sw_mismatches;
      }
    });
    std::thread reporter([&] {
      start.arrive_and_wait();
      for (int i = 0; i < kIterations; ++i) {
        if (render_report(instance.influence) != report_reference) {
          ++report_mismatches;
        }
      }
    });
    builder.join();
    reporter.join();
    EXPECT_EQ(sw_mismatches, 0) << "round " << round;
    EXPECT_EQ(report_mismatches, 0) << "round " << round;
  }
}

}  // namespace
}  // namespace fcm
