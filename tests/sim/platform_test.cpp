#include "sim/platform.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/error.h"

namespace fcm::sim {
namespace {

// A two-task pipeline: producer writes a region every 10ms, consumer reads
// it every 10ms (offset 5ms).
PlatformSpec pipeline_spec(Probability producer_fault = Probability::zero(),
                           Probability consumer_check = Probability::zero(),
                           SchedPolicy policy = SchedPolicy::kPreemptiveEdf) {
  PlatformSpec spec;
  const ProcessorId cpu = spec.add_processor("cpu0", policy);
  const RegionId shared = spec.add_region("shared");

  TaskSpec producer;
  producer.name = "producer";
  producer.processor = cpu;
  producer.period = Duration::millis(10);
  producer.deadline = Duration::millis(10);
  producer.cost = Duration::millis(2);
  producer.writes = {shared};
  producer.fault_rate = producer_fault;
  spec.add_task(producer);

  TaskSpec consumer;
  consumer.name = "consumer";
  consumer.processor = cpu;
  consumer.period = Duration::millis(10);
  consumer.deadline = Duration::millis(10);
  consumer.cost = Duration::millis(2);
  consumer.offset = Duration::millis(5);
  consumer.reads = {shared};
  consumer.input_check = consumer_check;
  spec.add_task(consumer);
  return spec;
}

TEST(Platform, PeriodicActivationsCount) {
  const PlatformSpec spec = pipeline_spec();
  Platform platform(spec, 1);
  const SimReport report = platform.run(Duration::millis(100));
  // Producer releases at 0,10,...,90 = 10; consumer at 5,15,...,95 = 10.
  EXPECT_EQ(report.tasks[0].activations, 10u);
  EXPECT_EQ(report.tasks[1].activations, 10u);
  EXPECT_EQ(report.tasks[0].completions, 10u);
  EXPECT_EQ(report.tasks[1].completions, 10u);
}

TEST(Platform, NoFaultsNoFailures) {
  const PlatformSpec spec = pipeline_spec();
  Platform platform(spec, 2);
  const SimReport report = platform.run(Duration::millis(100));
  for (const TaskStats& stats : report.tasks) {
    EXPECT_EQ(stats.failures, 0u);
    EXPECT_EQ(stats.deadline_misses, 0u);
    EXPECT_EQ(stats.own_faults, 0u);
  }
  EXPECT_TRUE(report.propagations.empty());
}

TEST(Platform, InjectedValueFaultPropagatesDownstream) {
  const PlatformSpec spec = pipeline_spec();
  Platform platform(spec, 3);
  FaultInjection injection;
  injection.kind = FaultKind::kValue;
  injection.target = 0;  // producer
  injection.activation = 2;
  platform.inject(injection);
  const SimReport report = platform.run(Duration::millis(100));
  EXPECT_EQ(report.tasks[0].own_faults, 1u);
  EXPECT_GT(report.tasks[1].tainted_inputs, 0u);
  EXPECT_GT(report.tasks[1].propagated_failures, 0u);
  EXPECT_TRUE(report.propagated(0, 1));
}

TEST(Platform, InputCheckContainsTaint) {
  // A perfect acceptance check drops the taint: detection recorded, no
  // propagated failure.
  const PlatformSpec spec =
      pipeline_spec(Probability::zero(), Probability::one());
  Platform platform(spec, 4);
  FaultInjection injection;
  injection.kind = FaultKind::kValue;
  injection.target = 0;
  injection.activation = 2;
  platform.inject(injection);
  const SimReport report = platform.run(Duration::millis(100));
  EXPECT_GT(report.tasks[1].detected_inputs, 0u);
  EXPECT_EQ(report.tasks[1].propagated_failures, 0u);
  EXPECT_FALSE(report.propagated(0, 1));
}

TEST(Platform, CleanOverwriteClearsRegionTaint) {
  // Taint injected at activation 2 is overwritten by the clean activation
  // 3, so only a bounded window of consumer activations is affected.
  const PlatformSpec spec = pipeline_spec();
  Platform platform(spec, 5);
  FaultInjection injection;
  injection.kind = FaultKind::kValue;
  injection.target = 0;
  injection.activation = 2;
  platform.inject(injection);
  const SimReport report = platform.run(Duration::millis(100));
  EXPECT_EQ(report.tasks[1].tainted_inputs, 1u);
}

TEST(Platform, CrashStopsActivations) {
  const PlatformSpec spec = pipeline_spec();
  Platform platform(spec, 6);
  FaultInjection injection;
  injection.kind = FaultKind::kCrash;
  injection.target = 0;
  injection.activation = 3;
  platform.inject(injection);
  const SimReport report = platform.run(Duration::millis(100));
  // Activations 0,1,2 completed; 3 crashed at release (counted as an
  // activation), later releases suppressed.
  EXPECT_EQ(report.tasks[0].completions, 3u);
  EXPECT_EQ(report.tasks[0].failures, 1u);
}

TEST(Platform, MemoryScribbleTaintsRegion) {
  const PlatformSpec spec = pipeline_spec();
  Platform platform(spec, 7);
  FaultInjection injection;
  injection.kind = FaultKind::kMemoryScribble;
  injection.target = 0;
  injection.activation = 1;
  platform.inject(injection);
  const SimReport report = platform.run(Duration::millis(100));
  EXPECT_GT(report.tasks[1].tainted_inputs, 0u);
}

TEST(Platform, DeterministicForSeed) {
  auto run = [](std::uint64_t seed) {
    const PlatformSpec spec = pipeline_spec(Probability(0.3));
    Platform platform(spec, seed);
    return platform.run(Duration::millis(200));
  };
  const SimReport a = run(11);
  const SimReport b = run(11);
  const SimReport c = run(12);
  EXPECT_EQ(a.tasks[0].own_faults, b.tasks[0].own_faults);
  EXPECT_EQ(a.tasks[1].failures, b.tasks[1].failures);
  EXPECT_EQ(a.propagations.size(), b.propagations.size());
  // Different seeds should (overwhelmingly) differ somewhere.
  EXPECT_TRUE(a.tasks[0].own_faults != c.tasks[0].own_faults ||
              a.tasks[1].failures != c.tasks[1].failures ||
              a.propagations.size() != c.propagations.size());
}

// -- Scheduling-dependent timing propagation (§4.2.3). --

PlatformSpec timing_spec(SchedPolicy policy) {
  PlatformSpec spec;
  const ProcessorId cpu = spec.add_processor("cpu0", policy);
  TaskSpec hog;  // long-period task that will be timing-inflated
  hog.name = "hog";
  hog.processor = cpu;
  hog.period = Duration::millis(100);
  hog.deadline = Duration::millis(100);
  hog.cost = Duration::millis(10);
  spec.add_task(hog);

  TaskSpec urgent;  // short-deadline task sharing the processor
  urgent.name = "urgent";
  urgent.processor = cpu;
  urgent.period = Duration::millis(20);
  urgent.deadline = Duration::millis(10);
  urgent.cost = Duration::millis(2);
  urgent.offset = Duration::millis(1);
  spec.add_task(urgent);
  return spec;
}

TEST(Platform, TimingFaultTransmitsUnderNonPreemptiveScheduling) {
  // "If non-preemptive scheduling is used, then a timing fault (e.g., a
  // task in an infinite loop) can cause all other tasks also to fail."
  const PlatformSpec spec = timing_spec(SchedPolicy::kNonPreemptiveFifo);
  Platform platform(spec, 21);
  FaultInjection injection;
  injection.kind = FaultKind::kTiming;
  injection.target = 0;  // hog
  injection.activation = 0;
  injection.cost_factor = 5.0;  // 10ms -> 50ms, blocking urgent releases
  platform.inject(injection);
  const SimReport report = platform.run(Duration::millis(100));
  EXPECT_GT(report.tasks[1].deadline_misses, 0u);
  EXPECT_TRUE(report.propagated(0, 1));
}

TEST(Platform, PreemptiveSchedulingContainsTimingFault) {
  // "The probability of transmission of the timing fault can be minimized
  // by using preemptive scheduling."
  const PlatformSpec spec = timing_spec(SchedPolicy::kPreemptiveEdf);
  Platform platform(spec, 22);
  FaultInjection injection;
  injection.kind = FaultKind::kTiming;
  injection.target = 0;
  injection.activation = 0;
  injection.cost_factor = 5.0;
  platform.inject(injection);
  const SimReport report = platform.run(Duration::millis(100));
  // The urgent task preempts the inflated hog and keeps meeting deadlines.
  EXPECT_EQ(report.tasks[1].deadline_misses, 0u);
  EXPECT_FALSE(report.propagated(0, 1));
}

TEST(Platform, TimingFaultRejectsUnrepresentableCostFactors) {
  // A factor that is not finite, is negative, or inflates the 10 ms cost
  // past Instant::distant_future() has no inflated cost to run.
  const PlatformSpec spec = timing_spec(SchedPolicy::kPreemptiveEdf);
  for (const double factor :
       {std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(), -1.0, 1e300}) {
    Platform platform(spec, 23);
    FaultInjection injection;
    injection.kind = FaultKind::kTiming;
    injection.target = 0;
    injection.cost_factor = factor;
    EXPECT_THROW(platform.inject(injection), InvalidArgument) << factor;
  }
}

TEST(Platform, TimingFaultAcceptsRepresentableCostFactors) {
  const PlatformSpec spec = timing_spec(SchedPolicy::kPreemptiveEdf);
  auto run = [&](double factor) {
    Platform platform(spec, 24);
    FaultInjection injection;
    injection.kind = FaultKind::kTiming;
    injection.target = 0;  // hog: 10 ms cost, 100 ms deadline
    injection.cost_factor = factor;
    platform.inject(injection);
    return platform.run(Duration::millis(100));
  };
  // 0: the activation completes at once; 3: 30 ms, still in time.
  for (const double factor : {0.0, 3.0}) {
    const SimReport report = run(factor);
    EXPECT_EQ(report.tasks[0].completions, 1u) << factor;
    EXPECT_EQ(report.tasks[0].deadline_misses, 0u) << factor;
  }
  // 1e13: 1e17 us of work, far past the horizon but representable — the
  // run waits for it, and it completes late.
  const SimReport late = run(1e13);
  EXPECT_EQ(late.tasks[0].completions, 1u);
  EXPECT_EQ(late.tasks[0].deadline_misses, 1u);
}

TEST(Platform, ChannelsCarryTaintToReceivers) {
  PlatformSpec spec;
  const ProcessorId cpu = spec.add_processor("cpu0");
  TaskSpec sender;
  sender.name = "sender";
  sender.processor = cpu;
  sender.period = Duration::millis(10);
  sender.deadline = Duration::millis(10);
  sender.cost = Duration::millis(1);
  const TaskIndex s = spec.add_task(sender);
  TaskSpec receiver;
  receiver.name = "receiver";
  receiver.processor = cpu;
  receiver.period = Duration::millis(10);
  receiver.deadline = Duration::millis(10);
  receiver.cost = Duration::millis(1);
  receiver.offset = Duration::millis(5);
  const TaskIndex r = spec.add_task(receiver);
  spec.add_channel("link", s, r);

  Platform platform(spec, 31);
  FaultInjection injection;
  injection.kind = FaultKind::kValue;
  injection.target = s;
  injection.activation = 1;
  platform.inject(injection);
  const SimReport report = platform.run(Duration::millis(80));
  EXPECT_TRUE(report.propagated(s, r));
}

TEST(Platform, ChannelCorruptionGeneratesSpontaneousTaint) {
  PlatformSpec spec;
  const ProcessorId cpu = spec.add_processor("cpu0");
  TaskSpec sender;
  sender.name = "sender";
  sender.processor = cpu;
  sender.period = Duration::millis(10);
  sender.deadline = Duration::millis(10);
  sender.cost = Duration::millis(1);
  const TaskIndex s = spec.add_task(sender);
  TaskSpec receiver = sender;
  receiver.name = "receiver";
  receiver.offset = Duration::millis(5);
  const TaskIndex r = spec.add_task(receiver);
  spec.add_channel("noisy", s, r, Probability::one(), Probability(0.5));

  Platform platform(spec, 41);
  const SimReport report = platform.run(Duration::millis(500));
  EXPECT_GT(report.tasks[r].tainted_inputs, 0u);
}

TEST(Platform, ProcessorCrashAbandonsJobsAndStopsReleases) {
  // Crash at 6ms: the producer's first activation (0-2ms) completed; the
  // consumer released at 5ms is in service and gets abandoned. Nothing on
  // the processor activates again.
  const PlatformSpec spec = pipeline_spec();
  Platform platform(spec, 61);
  platform.crash_processor_at(0, Duration::millis(6));
  const SimReport report = platform.run(Duration::millis(100));
  EXPECT_EQ(report.processors_crashed, 1u);
  EXPECT_EQ(report.jobs_abandoned, 1u);
  EXPECT_EQ(report.tasks[0].activations, 1u);
  EXPECT_EQ(report.tasks[0].completions, 1u);
  EXPECT_EQ(report.tasks[1].activations, 1u);
  EXPECT_EQ(report.tasks[1].completions, 0u);
}

TEST(Platform, ProcessorCrashIsLocalToItsProcessor) {
  PlatformSpec spec;
  const ProcessorId cpu0 = spec.add_processor("cpu0");
  const ProcessorId cpu1 = spec.add_processor("cpu1");
  for (const ProcessorId cpu : {cpu0, cpu1}) {
    TaskSpec task;
    task.name = cpu == cpu0 ? "victim" : "bystander";
    task.processor = cpu;
    task.period = Duration::millis(10);
    task.deadline = Duration::millis(10);
    task.cost = Duration::millis(1);
    spec.add_task(task);
  }
  Platform platform(spec, 62);
  platform.crash_processor_at(0, Duration::millis(35));
  const SimReport report = platform.run(Duration::millis(100));
  EXPECT_EQ(report.tasks[0].completions, 4u);  // releases 0,10,20,30
  EXPECT_EQ(report.tasks[1].completions, 10u);  // unaffected
  EXPECT_EQ(report.processors_crashed, 1u);
}

TEST(Platform, RegionCorruptionBlamesTheNamedOrigin) {
  // Corrupt the shared region at 4ms, blaming the producer: the consumer's
  // 5ms read consumes the taint and the failure traces to the producer even
  // though the producer itself never faulted.
  const PlatformSpec spec = pipeline_spec();
  Platform platform(spec, 63);
  platform.corrupt_region_at(RegionId(0), Duration::millis(4), 0);
  const SimReport report = platform.run(Duration::millis(50));
  EXPECT_EQ(report.tasks[0].own_faults, 0u);
  EXPECT_EQ(report.tasks[1].tainted_inputs, 1u);  // 10ms write scrubs it
  EXPECT_GT(report.tasks[1].propagated_failures, 0u);
  EXPECT_TRUE(report.propagated(0, 1));
}

TEST(Platform, FaultBurstCoversConsecutiveActivations) {
  const PlatformSpec spec = pipeline_spec();
  Platform platform(spec, 64);
  FaultInjection injection;
  injection.kind = FaultKind::kValue;
  injection.target = 0;
  injection.activation = 2;
  injection.count = 3;  // activations 2, 3, 4
  platform.inject(injection);
  const SimReport report = platform.run(Duration::millis(100));
  EXPECT_EQ(report.tasks[0].own_faults, 3u);
}

TEST(Platform, BabblingTaskFaultsEveryActivationUntilHorizon) {
  const PlatformSpec spec = pipeline_spec();
  Platform platform(spec, 65);
  FaultInjection injection;
  injection.kind = FaultKind::kValue;
  injection.target = 0;
  injection.activation = 4;
  injection.count = FaultInjection::kForever;
  platform.inject(injection);
  const SimReport report = platform.run(Duration::millis(100));
  // 10 activations, erroneous from activation 4 onward.
  EXPECT_EQ(report.tasks[0].own_faults, 6u);
}

TEST(Platform, RunsExactlyOnce) {
  const PlatformSpec spec = pipeline_spec();
  Platform platform(spec, 51);
  platform.run(Duration::millis(10));
  EXPECT_THROW(platform.run(Duration::millis(10)), InvalidArgument);
}

TEST(Platform, InjectionAfterRunRejected) {
  const PlatformSpec spec = pipeline_spec();
  Platform platform(spec, 52);
  platform.run(Duration::millis(10));
  EXPECT_THROW(platform.inject(FaultInjection{}), InvalidArgument);
}

TEST(PlatformSpec, ValidateCatchesBadReferences) {
  PlatformSpec spec;
  spec.add_processor("cpu0");
  TaskSpec task;
  task.name = "t";
  task.processor = ProcessorId(5);  // unknown
  task.period = Duration::millis(10);
  task.deadline = Duration::millis(10);
  task.cost = Duration::millis(1);
  spec.add_task(task);
  EXPECT_THROW(spec.validate(), InvalidArgument);
}

TEST(PlatformSpec, ValidateCatchesImpossibleDeadline) {
  PlatformSpec spec;
  const ProcessorId cpu = spec.add_processor("cpu0");
  TaskSpec task;
  task.name = "t";
  task.processor = cpu;
  task.period = Duration::millis(10);
  task.deadline = Duration::millis(2);
  task.cost = Duration::millis(5);  // cost > deadline
  spec.add_task(task);
  EXPECT_THROW(spec.validate(), InvalidArgument);
}

}  // namespace
}  // namespace fcm::sim
