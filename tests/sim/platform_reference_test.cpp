// sim::Platform against the reference simulator it replaced
// (platform_reference.h): for every spec, seed and planted fault load below
// the two must produce the same SimReport — every TaskStats field, the
// propagation list in order, the dispatched event count, the crashed
// processors and the abandoned jobs. The cases aim at what the event slots
// and ready heaps could reorder: equal-time events (crashes and
// corruptions planted at release instants), equal EDF deadlines and DM
// priorities, preemptions, FIFO queues and hosts loaded past utilisation 1,
// plus the platforms the resilience campaigns compile from real plans.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/example98.h"
#include "core/synthetic.h"
#include "mapping/planner.h"
#include "platform_reference.h"
#include "resilience/scenario.h"
#include "sim/platform.h"

namespace fcm::sim {
namespace {

// A crash or corruption planted before the run, in planting order.
struct TimedFault {
  bool crash = true;
  std::uint32_t processor = 0;
  RegionId region;
  TaskIndex blame = 0;
  Duration at;
};

struct FaultLoad {
  std::vector<FaultInjection> injections;
  std::vector<TimedFault> timed;
};

template <typename Simulator>
SimReport simulate(const PlatformSpec& spec, std::uint64_t seed,
                   const FaultLoad& load, Duration horizon) {
  Simulator platform(spec, seed);
  for (const FaultInjection& injection : load.injections) {
    platform.inject(injection);
  }
  for (const TimedFault& fault : load.timed) {
    if (fault.crash) {
      platform.crash_processor_at(fault.processor, fault.at);
    } else {
      platform.corrupt_region_at(fault.region, fault.at, fault.blame);
    }
  }
  return platform.run(horizon);
}

::testing::AssertionResult same_report(const SimReport& got,
                                       const SimReport& want) {
  std::ostringstream diff;
  if (got.tasks.size() != want.tasks.size()) {
    diff << "task count " << got.tasks.size() << " vs " << want.tasks.size();
  }
  for (std::size_t t = 0; t < got.tasks.size() && t < want.tasks.size();
       ++t) {
    const TaskStats& a = got.tasks[t];
    const TaskStats& b = want.tasks[t];
    const std::uint32_t fields[][2] = {
        {a.activations, b.activations},
        {a.completions, b.completions},
        {a.deadline_misses, b.deadline_misses},
        {a.own_faults, b.own_faults},
        {a.tainted_inputs, b.tainted_inputs},
        {a.detected_inputs, b.detected_inputs},
        {a.failures, b.failures},
        {a.propagated_failures, b.propagated_failures}};
    const char* names[] = {"activations",     "completions",
                           "deadline_misses", "own_faults",
                           "tainted_inputs",  "detected_inputs",
                           "failures",        "propagated_failures"};
    for (std::size_t f = 0; f < 8; ++f) {
      if (fields[f][0] != fields[f][1]) {
        diff << "task " << t << " " << names[f] << " " << fields[f][0]
             << " vs " << fields[f][1] << "; ";
      }
    }
  }
  if (got.propagations.size() != want.propagations.size()) {
    diff << "propagations " << got.propagations.size() << " vs "
         << want.propagations.size() << "; ";
  }
  for (std::size_t i = 0;
       i < got.propagations.size() && i < want.propagations.size(); ++i) {
    const PropagationEvent& a = got.propagations[i];
    const PropagationEvent& b = want.propagations[i];
    if (a.from != b.from || a.to != b.to || a.when != b.when) {
      diff << "propagation " << i << " (" << a.from << "->" << a.to << " @"
           << a.when.since_epoch().count() << ") vs (" << b.from << "->"
           << b.to << " @" << b.when.since_epoch().count() << "); ";
      break;
    }
  }
  if (got.events_dispatched != want.events_dispatched) {
    diff << "events_dispatched " << got.events_dispatched << " vs "
         << want.events_dispatched << "; ";
  }
  if (got.processors_crashed != want.processors_crashed) {
    diff << "processors_crashed " << got.processors_crashed << " vs "
         << want.processors_crashed << "; ";
  }
  if (got.jobs_abandoned != want.jobs_abandoned) {
    diff << "jobs_abandoned " << got.jobs_abandoned << " vs "
         << want.jobs_abandoned << "; ";
  }
  if (diff.str().empty()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << diff.str();
}

// What the differential sweeps actually exercised, so a sweep that never
// misses a deadline or abandons a job cannot pass vacuously.
struct Coverage {
  std::uint64_t runs = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t propagations = 0;
  std::uint64_t jobs_abandoned = 0;
  std::uint64_t tainted_inputs = 0;

  void add(const SimReport& report) {
    ++runs;
    propagations += report.propagations.size();
    jobs_abandoned += report.jobs_abandoned;
    for (const TaskStats& stats : report.tasks) {
      deadline_misses += stats.deadline_misses;
      tainted_inputs += stats.tainted_inputs;
    }
  }
};

void expect_same(const PlatformSpec& spec, std::uint64_t seed,
                 const FaultLoad& load, Duration horizon,
                 const std::string& label, Coverage& coverage) {
  const SimReport got = simulate<Platform>(spec, seed, load, horizon);
  const SimReport want =
      simulate<reference::Platform>(spec, seed, load, horizon);
  EXPECT_TRUE(same_report(got, want)) << label << " seed " << seed;
  coverage.add(want);
}

// Small random platforms: 1-3 processors, 3-12 tasks with periods of 5, 10
// or 20 ms, deadlines at or below the period (so EDF and DM preempt), costs
// in 0.5 ms steps (so completions and releases coincide), millisecond
// offsets (so releases coincide), and enough tasks per host that some
// hosts run past utilisation 1. Regions and channels carry taint; channels
// corrupt messages, and state persists across activations.
PlatformSpec random_spec(Rng& rng, const std::vector<SchedPolicy>& policies) {
  PlatformSpec spec;
  const std::uint32_t processors = 1 + rng.below(3);
  for (std::uint32_t p = 0; p < processors; ++p) {
    spec.add_processor("cpu" + std::to_string(p),
                       policies[rng.below(
                           static_cast<std::uint32_t>(policies.size()))]);
  }
  const std::uint32_t regions = 1 + rng.below(4);
  for (std::uint32_t r = 0; r < regions; ++r) {
    spec.add_region("r" + std::to_string(r),
                    Probability(rng.uniform(0.3, 1.0)));
  }
  const std::uint32_t tasks = 3 + rng.below(10);
  const std::int64_t periods_ms[] = {5, 10, 20};
  for (std::uint32_t t = 0; t < tasks; ++t) {
    TaskSpec task;
    task.name = "t" + std::to_string(t);
    task.processor = ProcessorId(rng.below(processors));
    const std::int64_t period_ms = periods_ms[rng.below(3)];
    task.period = Duration::millis(period_ms);
    task.deadline = Duration::millis(period_ms - rng.range(0, period_ms / 2));
    const std::int64_t max_halves = task.deadline.count() / 500;
    task.cost = Duration::micros(500 * rng.range(1, std::min<std::int64_t>(
                                                        max_halves, 6)));
    task.offset = Duration::millis(rng.range(0, 4));
    if (rng.chance(Probability(0.6))) {
      task.reads.push_back(RegionId(rng.below(regions)));
    }
    if (rng.chance(Probability(0.6))) {
      task.writes.push_back(RegionId(rng.below(regions)));
    }
    task.fault_rate = Probability(rng.uniform(0.0, 0.1));
    task.manifestation = Probability(rng.uniform(0.3, 1.0));
    task.input_check = Probability(rng.uniform(0.0, 0.5));
    task.state_persistence = Probability(rng.uniform(0.0, 0.6));
    spec.add_task(task);
  }
  const std::uint32_t channels = rng.below(4);
  for (std::uint32_t c = 0; c < channels; ++c) {
    spec.add_channel("c" + std::to_string(c), rng.below(tasks),
                     rng.below(tasks), Probability(rng.uniform(0.5, 1.0)),
                     Probability(rng.uniform(0.0, 0.3)));
  }
  spec.validate();
  return spec;
}

// An instant the schedule cares about: the run start, some task's release,
// or part-way through a job's service.
Duration interesting_instant(Rng& rng, const PlatformSpec& spec) {
  const TaskSpec& task =
      spec.tasks[rng.below(static_cast<std::uint32_t>(spec.tasks.size()))];
  const Duration release =
      task.offset + task.period * static_cast<std::int64_t>(rng.below(6));
  switch (rng.below(3)) {
    case 0: return Duration::zero();
    case 1: return release;
    default: return release + Duration::micros(250);
  }
}

FaultLoad random_load(Rng& rng, const PlatformSpec& spec) {
  FaultLoad load;
  const auto tasks = static_cast<std::uint32_t>(spec.tasks.size());
  const std::uint32_t injections = rng.below(4);
  for (std::uint32_t i = 0; i < injections; ++i) {
    FaultInjection injection;
    injection.kind = static_cast<FaultKind>(rng.below(4));
    injection.target = rng.below(tasks);
    injection.activation = rng.below(6);
    const std::uint32_t counts[] = {1, 3, FaultInjection::kForever};
    injection.count = counts[rng.below(3)];
    const double factors[] = {0.0, 0.5, 2.0, 3.0, 10.0};
    injection.cost_factor = factors[rng.below(5)];
    load.injections.push_back(injection);
  }
  const std::uint32_t timed = rng.below(4);
  for (std::uint32_t i = 0; i < timed; ++i) {
    TimedFault fault;
    fault.crash = rng.chance(Probability(0.5));
    fault.processor =
        rng.below(static_cast<std::uint32_t>(spec.processors.size()));
    fault.region =
        RegionId(rng.below(static_cast<std::uint32_t>(spec.regions.size())));
    fault.blame = rng.below(tasks);
    fault.at = interesting_instant(rng, spec);
    load.timed.push_back(fault);
  }
  return load;
}

void sweep_random(const std::vector<SchedPolicy>& policies,
                  std::uint64_t stream, Coverage& coverage) {
  for (std::uint64_t c = 0; c < 120; ++c) {
    Rng rng(c, stream);
    const PlatformSpec spec = random_spec(rng, policies);
    const FaultLoad load = random_load(rng, spec);
    const Duration horizon = Duration::millis(rng.range(60, 160));
    expect_same(spec, c + 1, load, horizon,
                "random case " + std::to_string(c), coverage);
  }
}

void expect_exercised(const Coverage& coverage) {
  EXPECT_GT(coverage.deadline_misses, 0u);
  EXPECT_GT(coverage.propagations, 0u);
  EXPECT_GT(coverage.jobs_abandoned, 0u);
  EXPECT_GT(coverage.tainted_inputs, 0u);
}

TEST(PlatformReference, RandomSpecsUnderEdf) {
  Coverage coverage;
  sweep_random({SchedPolicy::kPreemptiveEdf}, 1, coverage);
  expect_exercised(coverage);
}

TEST(PlatformReference, RandomSpecsUnderDm) {
  Coverage coverage;
  sweep_random({SchedPolicy::kFixedPriorityDm}, 2, coverage);
  expect_exercised(coverage);
}

TEST(PlatformReference, RandomSpecsUnderFifo) {
  Coverage coverage;
  sweep_random({SchedPolicy::kNonPreemptiveFifo}, 3, coverage);
  expect_exercised(coverage);
}

TEST(PlatformReference, RandomSpecsUnderMixedPolicies) {
  Coverage coverage;
  sweep_random({SchedPolicy::kPreemptiveEdf, SchedPolicy::kFixedPriorityDm,
                SchedPolicy::kNonPreemptiveFifo},
               4, coverage);
  expect_exercised(coverage);
}

// Crashes and corruptions planted exactly at a release instant act before
// the release; one planted mid-service abandons the running job.
TEST(PlatformReference, TimedFaultsAtReleaseInstants) {
  PlatformSpec spec;
  const ProcessorId cpu0 = spec.add_processor("cpu0");
  const ProcessorId cpu1 = spec.add_processor(
      "cpu1", SchedPolicy::kNonPreemptiveFifo);
  const RegionId shared = spec.add_region("shared");
  for (std::uint32_t t = 0; t < 6; ++t) {
    TaskSpec task;
    task.name = "t" + std::to_string(t);
    task.processor = t % 2 == 0 ? cpu0 : cpu1;
    task.period = Duration::millis(10);
    task.deadline = Duration::millis(t < 3 ? 10 : 6);
    task.cost = Duration::millis(2);
    task.offset = Duration::millis(t);
    if (t % 3 == 0) task.writes = {shared};
    if (t % 3 != 0) task.reads = {shared};
    spec.add_task(task);
  }
  Coverage coverage;
  for (const std::int64_t at_ms : {0, 1, 2, 5, 10, 20, 33}) {
    for (const std::int64_t extra_us : {0, 1, 1000}) {
      const Duration at = Duration::millis(at_ms) + Duration::micros(extra_us);
      FaultLoad load;
      load.timed.push_back({false, 0, shared, 3, at});
      load.timed.push_back({true, 0, RegionId(), 0, at});
      load.timed.push_back({true, 1, RegionId(), 0, at + Duration::millis(10)});
      expect_same(spec, 7, load, Duration::millis(60),
                  "crash at " + std::to_string(at.count()) + "us",
                  coverage);
    }
  }
  EXPECT_GT(coverage.jobs_abandoned, 0u);
}

// Every fault kind, as a single activation, a burst and a babbler.
TEST(PlatformReference, EveryFaultKindWithBurstsAndForever) {
  Rng rng(5, 5);
  const PlatformSpec spec = random_spec(
      rng, {SchedPolicy::kPreemptiveEdf, SchedPolicy::kNonPreemptiveFifo});
  Coverage coverage;
  for (const FaultKind kind : {FaultKind::kValue, FaultKind::kTiming,
                               FaultKind::kCrash,
                               FaultKind::kMemoryScribble}) {
    for (const std::uint32_t count : {1u, 4u, FaultInjection::kForever}) {
      for (TaskIndex target = 0; target < spec.tasks.size(); ++target) {
        FaultLoad load;
        FaultInjection injection;
        injection.kind = kind;
        injection.target = target;
        injection.activation = 1;
        injection.count = count;
        load.injections.push_back(injection);
        expect_same(spec, 100 + target, load, Duration::millis(120),
                    std::string(to_string(kind)) + " x" +
                        std::to_string(count) + " on t" +
                        std::to_string(target),
                    coverage);
      }
    }
  }
}

// The platforms the resilience campaigns build from real plans, under the
// faults of their standard scenario grid, translated as the campaign does.
void expect_same_on_plan(const core::FcmHierarchy& hierarchy,
                         const core::InfluenceModel& influence,
                         const std::vector<FcmId>& processes,
                         std::size_t hw_nodes, std::uint64_t seeds,
                         Coverage& coverage) {
  const mapping::HwGraph hw = mapping::HwGraph::complete(hw_nodes);
  const mapping::IntegrationPlanner planner(hierarchy, influence, processes,
                                            hw);
  const mapping::Plan plan = planner.best_plan();
  const mapping::SwGraph& sw = planner.sw_graph();
  const graph::Partition& partition = plan.clustering.partition;
  const resilience::CompiledPlatform compiled =
      resilience::compile_platform(sw, partition, plan.assignment, hw);
  for (const resilience::Scenario& scenario :
       resilience::standard_grid(sw, partition, plan.assignment, hw)) {
    FaultLoad load;
    for (const resilience::ScenarioEvent& event : scenario.events) {
      FaultInjection injection;
      injection.kind = FaultKind::kValue;
      injection.target = event.task;
      injection.activation = event.activation;
      switch (event.kind) {
        case resilience::ScenarioEventKind::kProcessorCrash:
          load.timed.push_back(
              {true, event.hw_node.value(), RegionId(), 0, event.at});
          break;
        case resilience::ScenarioEventKind::kTaskFaultBurst:
          injection.count = event.burst;
          load.injections.push_back(injection);
          break;
        case resilience::ScenarioEventKind::kBabblingTask:
          injection.count = FaultInjection::kForever;
          load.injections.push_back(injection);
          break;
        case resilience::ScenarioEventKind::kRegionCorruption:
          load.timed.push_back({false, 0, compiled.region_of_edge[event.edge],
                                event.task, event.at});
          break;
      }
    }
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      expect_same(compiled.spec, seed, load, Duration::millis(200),
                  scenario.name, coverage);
    }
  }
}

TEST(PlatformReference, CompiledExample98Platform) {
  const core::example98::Instance instance = core::example98::make_instance();
  Coverage coverage;
  expect_same_on_plan(instance.hierarchy, instance.influence,
                      instance.processes, core::example98::kHwNodes, 4,
                      coverage);
  EXPECT_GT(coverage.jobs_abandoned, 0u);
}

TEST(PlatformReference, CompiledSyntheticPlatforms) {
  Coverage coverage;
  const core::synthetic::System s32 = core::synthetic::make_system(32, 42);
  expect_same_on_plan(s32.hierarchy, s32.influence, s32.processes, 12, 2,
                      coverage);
  const core::synthetic::System s64 = core::synthetic::make_system(64, 42);
  expect_same_on_plan(s64.hierarchy, s64.influence, s64.processes, 21, 1,
                      coverage);
  // Both plans overload a host: fault-free work already misses deadlines.
  EXPECT_GT(coverage.deadline_misses, 0u);
  EXPECT_GT(coverage.jobs_abandoned, 0u);
}

}  // namespace
}  // namespace fcm::sim
