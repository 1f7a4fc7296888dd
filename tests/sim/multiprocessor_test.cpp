// Multiprocessor platform behaviour: independent schedulers per processor,
// cross-processor fault propagation through channels and shared regions,
// and timing isolation across processors (a HW FCR boundary in the sim).
#include <gtest/gtest.h>

#include "sim/platform.h"

namespace fcm::sim {
namespace {

// Two processors; producer on cpu0 sends to consumer on cpu1 via a channel;
// a local "neighbor" task shares cpu0 with the producer.
PlatformSpec two_cpu_spec() {
  PlatformSpec spec;
  const ProcessorId cpu0 = spec.add_processor("cpu0");
  const ProcessorId cpu1 = spec.add_processor("cpu1");

  TaskSpec producer;
  producer.name = "producer";
  producer.processor = cpu0;
  producer.period = Duration::millis(10);
  producer.deadline = Duration::millis(10);
  producer.cost = Duration::millis(3);
  const TaskIndex p = spec.add_task(producer);

  TaskSpec neighbor;
  neighbor.name = "neighbor";
  neighbor.processor = cpu0;
  neighbor.period = Duration::millis(10);
  neighbor.deadline = Duration::millis(10);
  neighbor.cost = Duration::millis(3);
  neighbor.offset = Duration::millis(5);
  spec.add_task(neighbor);

  TaskSpec consumer;
  consumer.name = "consumer";
  consumer.processor = cpu1;
  consumer.period = Duration::millis(10);
  consumer.deadline = Duration::millis(10);
  consumer.cost = Duration::millis(3);
  consumer.offset = Duration::millis(5);
  const TaskIndex c = spec.add_task(consumer);

  spec.add_channel("link", p, c);
  return spec;
}

TEST(Multiprocessor, IndependentSchedulersRunInParallel) {
  // Total demand is 9ms per 10ms period — infeasible on one processor,
  // trivial on two.
  const PlatformSpec spec = two_cpu_spec();
  Platform platform(spec, 1);
  const SimReport report = platform.run(Duration::millis(100));
  for (const TaskStats& stats : report.tasks) {
    EXPECT_EQ(stats.deadline_misses, 0u);
    EXPECT_EQ(stats.activations, 10u);
  }
}

TEST(Multiprocessor, ValueFaultCrossesProcessorsViaChannel) {
  const PlatformSpec spec = two_cpu_spec();
  Platform platform(spec, 2);
  FaultInjection injection;
  injection.kind = FaultKind::kValue;
  injection.target = 0;  // producer on cpu0
  injection.activation = 3;
  platform.inject(injection);
  const SimReport report = platform.run(Duration::millis(100));
  EXPECT_TRUE(report.propagated(0, 2));  // consumer on cpu1 fails
  EXPECT_FALSE(report.propagated(0, 1)); // neighbor has no data coupling
}

TEST(Multiprocessor, TimingFaultStaysWithinItsProcessor) {
  // The timing fault blocks cpu0's neighbor but never cpu1's consumer —
  // HW FCR containment of timing faults, visible in the sim.
  PlatformSpec spec = two_cpu_spec();
  spec.processors[0].policy = SchedPolicy::kNonPreemptiveFifo;
  Platform platform(spec, 3);
  FaultInjection injection;
  injection.kind = FaultKind::kTiming;
  injection.target = 0;
  injection.activation = 0;
  injection.cost_factor = 10.0;  // 3ms -> 30ms, floods cpu0
  platform.inject(injection);
  const SimReport report = platform.run(Duration::millis(100));
  EXPECT_GT(report.tasks[1].deadline_misses, 0u);   // cpu0 neighbor suffers
  EXPECT_EQ(report.tasks[2].deadline_misses, 0u);   // cpu1 consumer safe
  EXPECT_TRUE(report.propagated(0, 1));
}

TEST(Multiprocessor, CrashOnOneProcessorSilencesItsChannel) {
  const PlatformSpec spec = two_cpu_spec();
  Platform platform(spec, 4);
  FaultInjection injection;
  injection.kind = FaultKind::kCrash;
  injection.target = 0;
  injection.activation = 2;
  platform.inject(injection);
  const SimReport report = platform.run(Duration::millis(100));
  EXPECT_EQ(report.tasks[0].completions, 2u);
  // The consumer keeps running (fail-silent upstream): no failures, it
  // just stops receiving messages.
  EXPECT_EQ(report.tasks[2].failures, 0u);
  EXPECT_EQ(report.tasks[2].activations, 10u);
}

TEST(Multiprocessor, MixedPoliciesPerProcessor) {
  PlatformSpec spec = two_cpu_spec();
  spec.processors[0].policy = SchedPolicy::kNonPreemptiveFifo;
  spec.processors[1].policy = SchedPolicy::kPreemptiveEdf;
  Platform platform(spec, 5);
  const SimReport report = platform.run(Duration::millis(100));
  for (const TaskStats& stats : report.tasks) {
    EXPECT_EQ(stats.deadline_misses, 0u);
  }
}

}  // namespace
}  // namespace fcm::sim
