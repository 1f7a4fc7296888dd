// Edge-case coverage for public API corners the module tests don't reach.
#include <gtest/gtest.h>

#include "common/error.h"
#include "fcm.h"  // the umbrella header must compile standalone
#include "sched/nonpreemptive.h"
#include "../sim/platform_reference.h"

namespace fcm {
namespace {

TEST(ApiEdges, ScheduleCompletionOfUnknownJobIsDistantFuture) {
  sched::Schedule schedule;
  schedule.feasible = true;
  EXPECT_EQ(schedule.completion(JobId(42)), Instant::distant_future());
}

TEST(ApiEdges, NpFeasibleRejectsMoreThan64Jobs) {
  std::vector<sched::Job> jobs;
  for (std::uint32_t i = 0; i < 65; ++i) {
    sched::Job job;
    job.id = JobId(i);
    job.release = Instant::epoch();
    job.deadline = Instant::epoch() + Duration::micros(1000);
    job.cost = Duration::micros(1);
    jobs.push_back(std::move(job));
  }
  EXPECT_THROW(sched::np_feasible(jobs), InvalidArgument);
}

TEST(ApiEdges, EventQueueEmptyTracksState) {
  sim::reference::EventQueue queue;
  EXPECT_TRUE(queue.empty());
  queue.schedule_in(Duration::micros(5), [] {});
  EXPECT_FALSE(queue.empty());
  queue.run();
  EXPECT_TRUE(queue.empty());
}

TEST(ApiEdges, SwGraphLookupByIdAndIndexAgree) {
  auto instance = core::example98::make_instance();
  const mapping::SwGraph sw = mapping::SwGraph::build(
      instance.hierarchy, instance.influence, instance.processes);
  for (graph::NodeIndex v = 0; v < sw.node_count(); ++v) {
    const mapping::SwNode& by_index = sw.node(v);
    const mapping::SwNode& by_id = sw.node(by_index.id);
    EXPECT_EQ(by_index.name, by_id.name);
  }
  EXPECT_THROW((void)sw.node(SwNodeId(99)), InvalidArgument);
}

TEST(ApiEdges, HierarchyGetMutableUpdatesInPlace) {
  core::FcmHierarchy h;
  const FcmId id = h.create("x", core::Level::kProcess);
  h.get_mutable(id).attributes.criticality = 9;
  EXPECT_EQ(h.get(id).attributes.criticality, 9);
}

TEST(ApiEdges, ProbabilityOrderingIsTotal) {
  EXPECT_LT(Probability(0.1), Probability(0.2));
  EXPECT_EQ(Probability(0.5), Probability(0.5));
  EXPECT_GT(Probability::one(), Probability::zero());
}

TEST(ApiEdges, IntegrationOpStreamFormat) {
  core::IntegrationOp op;
  op.kind = core::CompositionKind::kMerge;
  op.inputs = {FcmId(1), FcmId(2)};
  op.result = FcmId(1);
  op.note = "demo";
  std::ostringstream out;
  out << op;
  EXPECT_EQ(out.str(), "merge(#1,#2) -> #1 [demo]");
}

TEST(ApiEdges, PlatformSpecChannelWiresEndpointsAddedLater) {
  // add_channel before the receiver task exists: validate() must flag the
  // missing receive-list entry rather than silently passing.
  sim::PlatformSpec spec;
  const ProcessorId cpu = spec.add_processor("cpu0");
  sim::TaskSpec sender;
  sender.name = "s";
  sender.processor = cpu;
  sender.period = Duration::millis(10);
  sender.deadline = Duration::millis(10);
  sender.cost = Duration::millis(1);
  const sim::TaskIndex s = spec.add_task(sender);
  spec.add_channel("early", s, 1);  // receiver index 1 does not exist yet
  sim::TaskSpec receiver = sender;
  receiver.name = "r";
  spec.add_task(receiver);
  EXPECT_THROW(spec.validate(), InvalidArgument);
}

TEST(ApiEdges, QuotientSingleClusterHasNoEdges) {
  graph::Digraph g;
  g.add_node("a");
  g.add_node("b");
  g.add_edge(0, 1, 0.5);
  graph::Partition p = graph::Partition::identity(2);
  p.merge(0, 1);
  const graph::Digraph q = quotient_graph(g, p);
  EXPECT_EQ(q.node_count(), 1u);
  EXPECT_EQ(q.edge_count(), 0u);
}

}  // namespace
}  // namespace fcm
