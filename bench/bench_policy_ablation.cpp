// Ablation — §4.2.3 on the simulator: "If non-preemptive scheduling is
// used, then a timing fault (e.g., a task in an infinite loop) can cause
// all other tasks also to fail. However, the probability of transmission of
// the timing fault (p_{5,2}) can be minimized by using preemptive
// scheduling." We inject timing faults of growing severity into a shared-
// processor workload and measure the victim's deadline-miss probability
// under both policies.
#include "bench_util.h"
#include "common/table.h"
#include "sim/platform.h"

namespace {

using namespace fcm;
using namespace fcm::sim;

PlatformSpec shared_cpu(SchedPolicy policy) {
  PlatformSpec spec;
  const ProcessorId cpu = spec.add_processor("cpu0", policy);
  TaskSpec hog;  // the fault site
  hog.name = "hog";
  hog.processor = cpu;
  hog.period = Duration::millis(50);
  hog.deadline = Duration::millis(50);
  hog.cost = Duration::millis(10);
  spec.add_task(hog);
  TaskSpec urgent;  // the victim
  urgent.name = "urgent";
  urgent.processor = cpu;
  urgent.period = Duration::millis(10);
  urgent.deadline = Duration::millis(5);
  urgent.cost = Duration::millis(2);
  urgent.offset = Duration::millis(1);
  spec.add_task(urgent);
  return spec;
}

/// Fraction of trials in which the victim missed at least one deadline
/// after a timing fault of the given severity hit the hog.
double transmission_rate(SchedPolicy policy, double cost_factor,
                         int trials) {
  const PlatformSpec spec = shared_cpu(policy);
  int transmitted = 0;
  for (int trial = 0; trial < trials; ++trial) {
    Platform platform(spec, static_cast<std::uint64_t>(trial) + 1);
    FaultInjection injection;
    injection.kind = FaultKind::kTiming;
    injection.target = 0;
    injection.activation = static_cast<std::uint32_t>(trial % 4);
    injection.cost_factor = cost_factor;
    platform.inject(injection);
    const SimReport report = platform.run(Duration::millis(200));
    if (report.tasks[1].deadline_misses > 0) ++transmitted;
  }
  return static_cast<double>(transmitted) / trials;
}

void print_reproduction() {
  bench::banner(
      "Timing-fault transmission: preemptive EDF vs non-preemptive FIFO");
  TextTable table({"overrun factor", "NP-FIFO miss rate",
                   "preemptive-EDF miss rate", "fixed-priority-DM miss rate"});
  for (const double factor : {1.5, 2.0, 3.0, 5.0, 10.0}) {
    table.add_row({fmt(factor, 1),
                   fmt(transmission_rate(
                       SchedPolicy::kNonPreemptiveFifo, factor, 40)),
                   fmt(transmission_rate(SchedPolicy::kPreemptiveEdf,
                                         factor, 40)),
                   fmt(transmission_rate(SchedPolicy::kFixedPriorityDm,
                                         factor, 40))});
  }
  std::cout << table.render();
  std::cout << "\nnon-preemptive scheduling transmits every overrun to the "
               "urgent task;\npreemptive EDF contains moderate overruns and "
               "leaks only under EDF\noverload (factor >= 5, where the "
               "hog's deadline out-prioritizes the\nvictim's); static "
               "fixed-priority DM never inverts — the urgent task's\n"
               "priority is immune to the hog's lateness. The paper's "
               "p_{5,2} claim,\nmeasured with its fine print.\n";
}

void BM_TransmissionTrial(benchmark::State& state) {
  const auto policy = static_cast<SchedPolicy>(state.range(0));
  const PlatformSpec spec = shared_cpu(policy);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    Platform platform(spec, seed++);
    FaultInjection injection;
    injection.kind = FaultKind::kTiming;
    injection.target = 0;
    injection.cost_factor = 5.0;
    platform.inject(injection);
    benchmark::DoNotOptimize(platform.run(Duration::millis(200)));
  }
}
BENCHMARK(BM_TransmissionTrial)
    ->Arg(static_cast<int>(SchedPolicy::kPreemptiveEdf))
    ->Arg(static_cast<int>(SchedPolicy::kNonPreemptiveFifo))
    ->Arg(static_cast<int>(SchedPolicy::kFixedPriorityDm));

}  // namespace

FCM_BENCH_MAIN(print_reproduction)
