// Test-side reference for sim::Platform: the simulator as it was first
// written, on a general-purpose event queue. Every event is a heap-allocated
// std::function kept until the queue drains, cancel scans every event ever
// scheduled, each processor's ready jobs sit in an unordered vector that
// dispatch scans, and the platform copies its spec. sim::Platform's event
// slots and ready heaps must reproduce its SimReport exactly
// (platform_reference_test.cpp); event_queue_test.cpp pins the queue's own
// contract.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/time.h"
#include "sim/model.h"
#include "sim/platform.h"

namespace fcm::sim::reference {

// A deterministic event queue: events fire in (time, insertion-sequence)
// order, so equal-time events execute exactly in the order they were
// scheduled.
class EventQueue {
 public:
  using Handler = std::function<void()>;

  /// Current simulated time.
  [[nodiscard]] Instant now() const noexcept { return now_; }

  /// Schedules `handler` at absolute time `when` (must not be in the past).
  /// Returns a token that can be passed to `cancel`.
  std::uint64_t schedule_at(Instant when, Handler handler) {
    FCM_REQUIRE(when >= now_, "cannot schedule an event in the past");
    FCM_REQUIRE(handler != nullptr, "event handler must be callable");
    auto event = std::make_unique<Event>();
    event->when = when;
    event->seq = next_seq_++;
    event->handler = std::move(handler);
    Event* raw = event.get();
    storage_.push_back(std::move(event));
    queue_.push(raw);
    return raw->seq;
  }

  /// Schedules `handler` `delay` after now.
  std::uint64_t schedule_in(Duration delay, Handler handler) {
    return schedule_at(now_ + delay, std::move(handler));
  }

  /// Cancels a scheduled event; cancelling an already-fired or unknown
  /// token is a no-op (returns false).
  bool cancel(std::uint64_t token) {
    // Linear scan over live storage; event counts are modest and cancels
    // are rare (scheduler switches only).
    for (const auto& event : storage_) {
      if (event->seq == token && !event->cancelled) {
        event->cancelled = true;
        return true;
      }
    }
    return false;
  }

  /// Runs events until the queue empties or the clock passes `until`.
  /// Events exactly at `until` still fire.
  void run_until(Instant until) {
    while (!queue_.empty()) {
      Event* event = queue_.top();
      if (event->when > until) break;
      queue_.pop();
      if (event->cancelled) continue;
      now_ = event->when;
      ++dispatched_;
      // Move the handler out so re-entrant scheduling cannot touch it.
      Handler handler = std::move(event->handler);
      event->cancelled = true;
      handler();
    }
    if (queue_.empty() || queue_.top()->when > until) {
      now_ = std::max(now_, until);
    }
    // Compact storage when the queue has fully drained — the priority
    // queue holds raw pointers into storage_, so eager compaction would
    // dangle.
    if (queue_.empty() && storage_.size() > 1024) {
      storage_.clear();
    }
  }

  /// Runs until the queue is empty.
  void run() { run_until(Instant::distant_future()); }

  /// Number of events dispatched so far.
  [[nodiscard]] std::uint64_t dispatched() const noexcept {
    return dispatched_;
  }

  /// True when no events remain.
  [[nodiscard]] bool empty() const noexcept {
    // The queue may hold cancelled entries; report emptiness
    // conservatively.
    return queue_.empty();
  }

 private:
  struct Event {
    Instant when;
    std::uint64_t seq;
    Handler handler;
    bool cancelled = false;
  };
  struct Order {
    bool operator()(const Event* a, const Event* b) const noexcept {
      if (a->when != b->when) return a->when > b->when;
      return a->seq > b->seq;
    }
  };

  Instant now_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  // Events are owned by this deque-like store; the priority queue holds
  // pointers. Fired/cancelled events are lazily discarded.
  std::vector<std::unique_ptr<Event>> storage_;
  std::priority_queue<Event*, std::vector<Event*>, Order> queue_;
};

/// One executable platform instance. Construct, optionally `inject`, then
/// `run` exactly once.
class Platform {
 public:
  /// `seed` drives every stochastic decision; identical (spec, seed,
  /// injections) triples replay identically. The spec is copied, so
  /// temporaries are safe to pass.
  Platform(PlatformSpec spec, std::uint64_t seed)
      : spec_(std::move(spec)), rng_(seed) {
    spec_.validate();
    processors_.resize(spec_.processors.size());
    task_states_.resize(spec_.tasks.size());
    regions_.resize(spec_.regions.size());
    channel_queues_.resize(spec_.channels.size());
    disturbance_.resize(spec_.processors.size());
    report_.tasks.resize(spec_.tasks.size());
  }

  /// Plants a fault before the run.
  void inject(const FaultInjection& injection) {
    FCM_REQUIRE(!ran_, "faults must be planted before the run");
    FCM_REQUIRE(injection.target < spec_.tasks.size(),
                "injection targets an unknown task");
    injections_.push_back(injection);
  }

  /// Schedules a permanent processor crash at `at` (relative to the run
  /// start).
  void crash_processor_at(std::uint32_t processor, Duration at) {
    FCM_REQUIRE(!ran_, "crashes must be planted before the run");
    FCM_REQUIRE(processor < spec_.processors.size(),
                "crash targets an unknown processor");
    FCM_REQUIRE(at >= Duration::zero(), "crash time must not be negative");
    TimedEvent event;
    event.kind = TimedEvent::Kind::kProcessorCrash;
    event.processor = processor;
    event.at = at;
    timed_events_.push_back(event);
  }

  /// Schedules a direct corruption of `region` at `at`, attributed to
  /// `blame` as the taint origin.
  void corrupt_region_at(RegionId region, Duration at, TaskIndex blame) {
    FCM_REQUIRE(!ran_, "corruptions must be planted before the run");
    FCM_REQUIRE(region.valid() && region.value() < spec_.regions.size(),
                "corruption targets an unknown region");
    FCM_REQUIRE(blame < spec_.tasks.size(),
                "corruption blames an unknown task");
    FCM_REQUIRE(at >= Duration::zero(),
                "corruption time must not be negative");
    TimedEvent event;
    event.kind = TimedEvent::Kind::kRegionCorruption;
    event.region = region;
    event.blame = blame;
    event.at = at;
    timed_events_.push_back(event);
  }

  /// Simulates until no activation released before `horizon` remains
  /// outstanding, and returns the report.
  SimReport run(Duration horizon) {
    FCM_REQUIRE(!ran_, "a Platform instance runs exactly once");
    FCM_REQUIRE(horizon > Duration::zero(), "horizon must be positive");
    ran_ = true;
    horizon_ = horizon;

    // Platform-level events first, so a crash or corruption scheduled at
    // the same instant as a release acts before it (insertion-order
    // tie-break).
    for (const TimedEvent& event : timed_events_) {
      if (event.at >= horizon) continue;
      queue_.schedule_at(Instant::epoch() + event.at, [this, event] {
        switch (event.kind) {
          case TimedEvent::Kind::kProcessorCrash:
            crash_processor(event.processor);
            break;
          case TimedEvent::Kind::kRegionCorruption:
            regions_[event.region.value()] = Taint{true, event.blame};
            break;
        }
      });
    }

    for (TaskIndex task = 0; task < spec_.tasks.size(); ++task) {
      const Duration offset = spec_.tasks[task].offset;
      if (offset < horizon) {
        queue_.schedule_at(Instant::epoch() + offset,
                           [this, task] { release_job(task, 0); });
      }
    }
    queue_.run();
    report_.events_dispatched = queue_.dispatched();
    return report_;
  }

 private:
  struct Job {
    TaskIndex task = 0;
    std::uint32_t activation = 0;
    Instant release;
    Instant absolute_deadline;
    Duration remaining;
    std::uint64_t arrival_seq = 0;
  };

  struct Taint {
    bool tainted = false;
    TaskIndex origin = 0;
  };

  struct ProcessorState {
    std::optional<Job> current;
    Instant service_start;
    std::uint64_t completion_token = 0;
    std::vector<Job> ready;
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

  void crash_processor(std::uint32_t processor) {
    ProcessorState& p = processors_[processor];
    if (p.crashed) return;
    p.crashed = true;
    ++report_.processors_crashed;
    // Abandon the job in service and everything queued: each counts as a
    // failure of its task (the output was never delivered).
    if (p.current.has_value()) {
      queue_.cancel(p.completion_token);
      ++report_.tasks[p.current->task].failures;
      ++report_.jobs_abandoned;
      p.current.reset();
    }
    for (const Job& job : p.ready) {
      ++report_.tasks[job.task].failures;
      ++report_.jobs_abandoned;
    }
    p.ready.clear();
    disturbance_[processor].reset();
    // Tasks bound to the processor never activate again.
    for (TaskIndex task = 0; task < spec_.tasks.size(); ++task) {
      if (spec_.tasks[task].processor.value() == processor) {
        task_states_[task].crashed = true;
      }
    }
  }

  const FaultInjection* injection_for(TaskIndex task,
                                      std::uint32_t activation) const {
    for (const FaultInjection& injection : injections_) {
      if (injection.target != task || activation < injection.activation) {
        continue;
      }
      if (activation - injection.activation < injection.count) {
        return &injection;
      }
    }
    return nullptr;
  }

  void release_job(TaskIndex task, std::uint32_t activation) {
    const TaskSpec& spec = spec_.tasks[task];
    if (task_states_[task].crashed) return;

    Job job;
    job.task = task;
    job.activation = activation;
    job.release = queue_.now();
    job.absolute_deadline = job.release + spec.deadline;
    job.remaining = spec.cost;
    job.arrival_seq = next_arrival_seq_++;
    ++report_.tasks[task].activations;

    // Injected faults that act at release time.
    if (const FaultInjection* injection = injection_for(task, activation)) {
      switch (injection->kind) {
        case FaultKind::kTiming:
          job.remaining = Duration::ticks(static_cast<std::int64_t>(
              static_cast<double>(spec.cost.count()) *
              injection->cost_factor));
          break;
        case FaultKind::kCrash:
          task_states_[task].crashed = true;
          ++report_.tasks[task].failures;
          return;  // the job never runs
        case FaultKind::kValue:
        case FaultKind::kMemoryScribble:
          break;  // handled at completion
      }
    }

    const std::uint32_t processor = spec.processor.value();
    ProcessorState& p = processors_[processor];
    if (p.crashed) return;

    // Schedule the next periodic release.
    const Instant next = job.release + spec.period;
    if (next.since_epoch() < horizon_) {
      queue_.schedule_at(next, [this, task, activation] {
        release_job(task, activation + 1);
      });
    }

    p.ready.push_back(job);
    if (!p.current.has_value()) {
      dispatch(processor);
      return;
    }
    const SchedPolicy policy = spec_.processors[processor].policy;
    bool preempts = false;
    switch (policy) {
      case SchedPolicy::kPreemptiveEdf:
        preempts = job.absolute_deadline < p.current->absolute_deadline;
        break;
      case SchedPolicy::kFixedPriorityDm:
        // Static priority: shorter relative deadline wins.
        preempts = spec_.tasks[job.task].deadline <
                   spec_.tasks[p.current->task].deadline;
        break;
      case SchedPolicy::kNonPreemptiveFifo:
        break;
    }
    if (preempts) {
      // Preempt: bank the current job's progress and re-queue it.
      queue_.cancel(p.completion_token);
      Job preempted = *p.current;
      preempted.remaining -= queue_.now() - p.service_start;
      p.current.reset();
      p.ready.push_back(preempted);
      dispatch(processor);
    }
  }

  void dispatch(std::uint32_t processor) {
    ProcessorState& p = processors_[processor];
    FCM_REQUIRE(!p.current.has_value(), "dispatch on a busy processor");
    if (p.ready.empty()) {
      disturbance_[processor].reset();
      return;
    }
    const SchedPolicy policy = spec_.processors[processor].policy;
    auto best = p.ready.begin();
    for (auto it = p.ready.begin(); it != p.ready.end(); ++it) {
      bool better = false;
      switch (policy) {
        case SchedPolicy::kPreemptiveEdf:
          better = it->absolute_deadline < best->absolute_deadline ||
                   (it->absolute_deadline == best->absolute_deadline &&
                    it->arrival_seq < best->arrival_seq);
          break;
        case SchedPolicy::kFixedPriorityDm: {
          const Duration d_it = spec_.tasks[it->task].deadline;
          const Duration d_best = spec_.tasks[best->task].deadline;
          better = d_it < d_best ||
                   (d_it == d_best && it->arrival_seq < best->arrival_seq);
          break;
        }
        case SchedPolicy::kNonPreemptiveFifo:
          better = it->arrival_seq < best->arrival_seq;
          break;
      }
      if (better) best = it;
    }
    p.current = *best;
    p.ready.erase(best);
    p.service_start = queue_.now();

    // Track whether a timing-inflated job is monopolizing this processor.
    const FaultInjection* injection =
        injection_for(p.current->task, p.current->activation);
    if (injection != nullptr && injection->kind == FaultKind::kTiming) {
      disturbance_[processor] = p.current->task;
    }

    p.completion_token = queue_.schedule_in(
        p.current->remaining,
        [this, processor] { complete_current(processor); });
  }

  void complete_current(std::uint32_t processor) {
    ProcessorState& p = processors_[processor];
    FCM_REQUIRE(p.current.has_value(), "completion on an idle processor");
    const Job job = *p.current;
    p.current.reset();
    finish_job(job);
    dispatch(processor);
  }

  void finish_job(const Job& job) {
    const TaskSpec& spec = spec_.tasks[job.task];
    TaskStats& stats = report_.tasks[job.task];
    TaskState& state = task_states_[job.task];
    ++stats.completions;

    // ---- Deadline check (timing failures). ----
    if (queue_.now() > job.absolute_deadline) {
      ++stats.deadline_misses;
      ++stats.failures;
      const std::uint32_t processor = spec.processor.value();
      const auto& blame = disturbance_[processor];
      if (blame.has_value() && *blame != job.task) {
        ++stats.propagated_failures;
        report_.propagations.push_back(
            PropagationEvent{*blame, job.task, queue_.now()});
      }
    }

    // ---- Gather input taint (p2 already applied at write/send time). ----
    Taint input;
    for (const RegionId region : spec.reads) {
      const Taint& t = regions_[region.value()];
      if (t.tainted && !input.tainted) input = t;
    }
    for (const ChannelId channel : spec.receives) {
      auto& pending = channel_queues_[channel.value()];
      for (const Taint& t : pending) {
        if (t.tainted && !input.tainted) input = t;
      }
      pending.clear();
    }

    bool erroneous = state.carried.tainted;
    Taint origin = state.carried;

    if (input.tainted) {
      ++stats.tainted_inputs;
      if (rng_.chance(spec.input_check)) {
        ++stats.detected_inputs;  // acceptance check drops the taint
      } else {
        // p3: does the erroneous input manifest as a failure here?
        if (rng_.chance(spec.manifestation)) {
          ++stats.failures;
          ++stats.propagated_failures;
          report_.propagations.push_back(
              PropagationEvent{input.origin, job.task, queue_.now()});
        }
        erroneous = true;
        if (!origin.tainted) origin = input;
      }
    }

    // ---- Own fault (p1): spontaneous or injected value fault. ----
    const FaultInjection* injection = injection_for(job.task, job.activation);
    const bool injected_value =
        injection != nullptr && injection->kind == FaultKind::kValue;
    if (injected_value || rng_.chance(spec.fault_rate)) {
      ++stats.own_faults;
      ++stats.failures;
      erroneous = true;
      origin = Taint{true, job.task};
    }

    // ---- Produce outputs, transmitting taint per medium (p2). ----
    for (const RegionId region : spec.writes) {
      const RegionSpec& rspec = spec_.regions[region.value()];
      if (erroneous && rng_.chance(rspec.write_transmission)) {
        regions_[region.value()] = origin;
      } else {
        regions_[region.value()] = Taint{};  // clean overwrite
      }
    }
    for (const ChannelId channel : spec.sends) {
      const ChannelSpec& cspec = spec_.channels[channel.value()];
      Taint message;
      if (erroneous && rng_.chance(cspec.transmission)) {
        message = origin;
      } else if (rng_.chance(cspec.corruption)) {
        message = Taint{true, job.task};  // medium noise, attributed to link
      }
      channel_queues_[channel.value()].push_back(message);
    }

    // Memory scribble: corrupt a reachable region outright.
    if (injection != nullptr &&
        injection->kind == FaultKind::kMemoryScribble &&
        !spec.writes.empty()) {
      const RegionId victim =
          spec.writes[rng_.below(static_cast<std::uint32_t>(
              spec.writes.size()))];
      regions_[victim.value()] = Taint{true, job.task};
      ++stats.own_faults;
    }

    // Erroneous internal state survives only with the configured
    // persistence (default: transient faults, stateless across
    // activations).
    state.carried = erroneous && rng_.chance(spec.state_persistence)
                        ? origin
                        : Taint{};
  }

  PlatformSpec spec_;
  Rng rng_;
  EventQueue queue_;
  Duration horizon_ = Duration::zero();
  std::uint64_t next_arrival_seq_ = 0;

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

}  // namespace fcm::sim::reference
