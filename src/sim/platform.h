// The discrete-event RT platform: scheduling + dataflow + fault propagation.
//
// Executes a PlatformSpec: periodic tasks on processors (preemptive EDF or
// DM, or non-preemptive FIFO), consuming and producing data through shared
// regions and channels. Erroneous state propagates as taint with a tracked
// origin task, which is what lets the influence estimator attribute a
// downstream failure to the module whose fault started the chain — the
// simulated equivalent of the paper's fault-injection campaigns (§4.2.1).
//
// Every event source owns one fixed slot that holds at most one pending
// event: task t its next release, processor p its running job's
// completion, each planted crash or corruption its own. Pending slots sit
// in one indexed binary heap keyed by (time, sequence), the sequence drawn
// at every schedule call, so equal-time events fire in the order they were
// scheduled. Each processor's ready jobs sit in a binary heap ordered by
// its policy. The reference simulator in tests/sim/platform_reference.h
// pins the reports this must reproduce.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "sim/model.h"

namespace fcm::sim {

/// Per-task outcome counters for one run.
struct TaskStats {
  std::uint32_t activations = 0;
  std::uint32_t completions = 0;
  std::uint32_t deadline_misses = 0;
  std::uint32_t own_faults = 0;       ///< p1 events (spontaneous + injected)
  std::uint32_t tainted_inputs = 0;   ///< activations that consumed taint
  std::uint32_t detected_inputs = 0;  ///< taint caught by the input check
  std::uint32_t failures = 0;         ///< manifested failures of any cause
  std::uint32_t propagated_failures = 0;  ///< failures caused by foreign taint

  [[nodiscard]] bool failed() const noexcept { return failures > 0; }
};

/// One observed fault propagation: origin module -> failing module.
struct PropagationEvent {
  TaskIndex from = 0;
  TaskIndex to = 0;
  Instant when;
};

/// The outcome of one simulation run.
struct SimReport {
  std::vector<TaskStats> tasks;
  std::vector<PropagationEvent> propagations;
  std::uint64_t events_dispatched = 0;
  /// Processors taken down by scheduled crashes during the run.
  std::uint32_t processors_crashed = 0;
  /// Jobs dropped mid-service or from ready queues by a processor crash.
  std::uint32_t jobs_abandoned = 0;

  /// Whether any failure of `to` traces back to a fault origin `from`.
  [[nodiscard]] bool propagated(TaskIndex from, TaskIndex to) const;
};

/// One executable platform instance. Construct, optionally `inject`, then
/// `run` exactly once.
class Platform {
 public:
  /// `seed` drives every stochastic decision; identical (spec, seed,
  /// injections) triples replay identically. The spec is borrowed, not
  /// copied: it must outlive the platform, so temporaries are rejected.
  Platform(const PlatformSpec& spec, std::uint64_t seed);
  Platform(PlatformSpec&&, std::uint64_t) = delete;

  /// Plants a fault before the run. Throws InvalidArgument for an unknown
  /// target, and for a kTiming factor that is negative or not finite or
  /// that inflates the target's cost past Instant::distant_future() ticks.
  void inject(const FaultInjection& injection);

  /// Schedules a permanent processor crash at `at` (relative to the run
  /// start): the job in service and every queued job are abandoned, and no
  /// task bound to the processor activates again — the HW-loss stimulus the
  /// resilience campaigns replan from.
  void crash_processor_at(std::uint32_t processor, Duration at);

  /// Schedules a direct corruption of `region` at `at`, attributed to
  /// `blame` as the taint origin (e.g. a scribbling writer or a cosmic-ray
  /// upset pinned on the region's producer).
  void corrupt_region_at(RegionId region, Duration at, TaskIndex blame);

  /// Simulates until no activation released before `horizon` remains
  /// outstanding, and returns the report.
  SimReport run(Duration horizon);

 private:
  struct Job {
    TaskIndex task = 0;
    std::uint32_t activation = 0;
    Instant absolute_deadline;
    Duration remaining;
    /// The policy's priority, lower first: the absolute deadline under
    /// EDF, the relative deadline under DM, zero under FIFO. Ties go to
    /// the lower `arrival_seq`, which is unique per job.
    Duration rank;
    std::uint64_t arrival_seq = 0;
  };
  /// Ready-heap order: `a` runs after `b`, so std::push_heap/pop_heap keep
  /// the job with the lowest (rank, arrival_seq) on top.
  static bool runs_after(const Job& a, const Job& b) noexcept;

  struct Taint {
    bool tainted = false;
    TaskIndex origin = 0;
  };

  struct ProcessorState {
    std::optional<Job> current;
    Instant service_start;
    std::vector<Job> ready;  ///< binary heap, best job on top
    bool crashed = false;
  };

  /// A pre-run scheduled platform-level event (crash or corruption).
  struct TimedEvent {
    enum class Kind : std::uint8_t { kProcessorCrash, kRegionCorruption };
    Kind kind = Kind::kProcessorCrash;
    std::uint32_t processor = 0;
    RegionId region;
    TaskIndex blame = 0;
    Duration at;
  };

  struct TaskState {
    bool crashed = false;
    Taint carried;  ///< erroneous state carried across the activation
  };

  static constexpr std::uint32_t kIdle = 0xFFFFFFFFu;
  /// One event source's pending event.
  struct Slot {
    Instant when;
    std::uint64_t seq = 0;
    /// Position in `heap_`, or kIdle when nothing is pending.
    std::uint32_t heap_pos = kIdle;
    /// Release slots: the activation the pending release starts.
    std::uint32_t activation = 0;
  };

  // Slot layout: tasks first, then processors, then timed events.
  [[nodiscard]] std::uint32_t completion_slot(std::uint32_t processor) const {
    return static_cast<std::uint32_t>(spec_.tasks.size()) + processor;
  }
  void schedule(std::uint32_t slot, Instant when);
  void cancel(std::uint32_t slot);
  [[nodiscard]] bool fires_before(std::uint32_t a, std::uint32_t b) const;
  void place(std::uint32_t pos, std::uint32_t slot);
  void sift_up(std::uint32_t pos, std::uint32_t slot);
  void sift_down(std::uint32_t pos, std::uint32_t slot);
  void fire(std::uint32_t slot);

  void release_job(TaskIndex task, std::uint32_t activation);
  void dispatch(std::uint32_t processor);
  void complete_current(std::uint32_t processor);
  void finish_job(const Job& job);
  void crash_processor(std::uint32_t processor);
  const FaultInjection* injection_for(TaskIndex task,
                                      std::uint32_t activation) const;

  const PlatformSpec& spec_;
  Rng rng_;
  Instant now_;
  std::uint64_t next_seq_ = 0;
  Duration horizon_ = Duration::zero();
  std::uint64_t next_arrival_seq_ = 0;

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> heap_;  ///< pending slots, earliest on top

  std::vector<ProcessorState> processors_;
  std::vector<TaskState> task_states_;
  std::vector<Taint> regions_;
  std::vector<std::vector<Taint>> channel_queues_;
  std::vector<FaultInjection> injections_;
  std::vector<TimedEvent> timed_events_;
  /// Task whose injected timing fault is currently inflating service on a
  /// processor (for attributing downstream deadline misses).
  std::vector<std::optional<TaskIndex>> disturbance_;

  SimReport report_;
  bool ran_ = false;
};

}  // namespace fcm::sim
