#include "sim/platform.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace fcm::sim {

bool SimReport::propagated(TaskIndex from, TaskIndex to) const {
  return std::any_of(propagations.begin(), propagations.end(),
                     [&](const PropagationEvent& e) {
                       return e.from == from && e.to == to;
                     });
}

Platform::Platform(const PlatformSpec& spec, std::uint64_t seed)
    : spec_(spec), rng_(seed) {
  spec_.validate();
  processors_.resize(spec_.processors.size());
  task_states_.resize(spec_.tasks.size());
  regions_.resize(spec_.regions.size());
  channel_queues_.resize(spec_.channels.size());
  disturbance_.resize(spec_.processors.size());
  report_.tasks.resize(spec_.tasks.size());
}

void Platform::inject(const FaultInjection& injection) {
  FCM_REQUIRE(!ran_, "faults must be planted before the run");
  FCM_REQUIRE(injection.target < spec_.tasks.size(),
              "injection targets an unknown task");
  if (injection.kind == FaultKind::kTiming) {
    const double factor = injection.cost_factor;
    FCM_REQUIRE(std::isfinite(factor) && factor >= 0.0,
                "timing fault needs a finite, non-negative cost factor");
    const double inflated =
        static_cast<double>(spec_.tasks[injection.target].cost.count()) *
        factor;
    const double limit = static_cast<double>(
        Instant::distant_future().since_epoch().count());
    FCM_REQUIRE(inflated <= limit,
                "timing fault inflates the cost past the distant future");
  }
  injections_.push_back(injection);
}

void Platform::crash_processor_at(std::uint32_t processor, Duration at) {
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

void Platform::corrupt_region_at(RegionId region, Duration at,
                                 TaskIndex blame) {
  FCM_REQUIRE(!ran_, "corruptions must be planted before the run");
  FCM_REQUIRE(region.valid() && region.value() < spec_.regions.size(),
              "corruption targets an unknown region");
  FCM_REQUIRE(blame < spec_.tasks.size(),
              "corruption blames an unknown task");
  FCM_REQUIRE(at >= Duration::zero(), "corruption time must not be negative");
  TimedEvent event;
  event.kind = TimedEvent::Kind::kRegionCorruption;
  event.region = region;
  event.blame = blame;
  event.at = at;
  timed_events_.push_back(event);
}

bool Platform::runs_after(const Job& a, const Job& b) noexcept {
  return a.rank > b.rank ||
         (a.rank == b.rank && a.arrival_seq > b.arrival_seq);
}

// ---- Event slots: one indexed binary heap keyed by (when, seq). ----

bool Platform::fires_before(std::uint32_t a, std::uint32_t b) const {
  const Slot& x = slots_[a];
  const Slot& y = slots_[b];
  return x.when < y.when || (x.when == y.when && x.seq < y.seq);
}

void Platform::place(std::uint32_t pos, std::uint32_t slot) {
  heap_[pos] = slot;
  slots_[slot].heap_pos = pos;
}

void Platform::sift_up(std::uint32_t pos, std::uint32_t slot) {
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 2;
    if (!fires_before(slot, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, slot);
}

void Platform::sift_down(std::uint32_t pos, std::uint32_t slot) {
  const auto size = static_cast<std::uint32_t>(heap_.size());
  for (std::uint32_t child = 2 * pos + 1; child < size;
       child = 2 * pos + 1) {
    if (child + 1 < size && fires_before(heap_[child + 1], heap_[child])) {
      ++child;
    }
    if (!fires_before(heap_[child], slot)) break;
    place(pos, heap_[child]);
    pos = child;
  }
  place(pos, slot);
}

void Platform::schedule(std::uint32_t slot, Instant when) {
  FCM_REQUIRE(when >= now_, "cannot schedule an event in the past");
  Slot& s = slots_[slot];
  FCM_REQUIRE(s.heap_pos == kIdle, "event slot already pending");
  s.when = when;
  s.seq = next_seq_++;
  heap_.push_back(slot);
  sift_up(static_cast<std::uint32_t>(heap_.size() - 1), slot);
}

void Platform::cancel(std::uint32_t slot) {
  const std::uint32_t pos = slots_[slot].heap_pos;
  slots_[slot].heap_pos = kIdle;
  const std::uint32_t last = heap_.back();
  heap_.pop_back();
  if (last == slot) return;
  // Refill the hole with the last slot, moved whichever way it must go.
  if (pos > 0 && fires_before(last, heap_[(pos - 1) / 2])) {
    sift_up(pos, last);
  } else {
    sift_down(pos, last);
  }
}

void Platform::fire(std::uint32_t slot) {
  const auto tasks = static_cast<std::uint32_t>(spec_.tasks.size());
  if (slot < tasks) {
    release_job(slot, slots_[slot].activation);
    return;
  }
  const std::uint32_t processor = slot - tasks;
  if (processor < processors_.size()) {
    complete_current(processor);
    return;
  }
  const TimedEvent& event = timed_events_[processor - processors_.size()];
  switch (event.kind) {
    case TimedEvent::Kind::kProcessorCrash:
      crash_processor(event.processor);
      break;
    case TimedEvent::Kind::kRegionCorruption:
      regions_[event.region.value()] = Taint{true, event.blame};
      break;
  }
}

// ---- Scheduling. ----

void Platform::crash_processor(std::uint32_t processor) {
  ProcessorState& p = processors_[processor];
  if (p.crashed) return;
  p.crashed = true;
  ++report_.processors_crashed;
  // Abandon the job in service and everything queued: each counts as a
  // failure of its task (the output was never delivered).
  if (p.current.has_value()) {
    cancel(completion_slot(processor));
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

const FaultInjection* Platform::injection_for(
    TaskIndex task, std::uint32_t activation) const {
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

void Platform::release_job(TaskIndex task, std::uint32_t activation) {
  const TaskSpec& spec = spec_.tasks[task];
  if (task_states_[task].crashed) return;

  const std::uint32_t processor = spec.processor.value();
  const SchedPolicy policy = spec_.processors[processor].policy;
  Job job;
  job.task = task;
  job.activation = activation;
  job.absolute_deadline = now_ + spec.deadline;
  job.remaining = spec.cost;
  switch (policy) {
    case SchedPolicy::kPreemptiveEdf:
      job.rank = job.absolute_deadline.since_epoch();
      break;
    case SchedPolicy::kFixedPriorityDm:
      // Static priority: shorter relative deadline wins.
      job.rank = spec.deadline;
      break;
    case SchedPolicy::kNonPreemptiveFifo:
      job.rank = Duration::zero();
      break;
  }
  job.arrival_seq = next_arrival_seq_++;
  ++report_.tasks[task].activations;

  // Injected faults that act at release time.
  if (const FaultInjection* injection = injection_for(task, activation)) {
    switch (injection->kind) {
      case FaultKind::kTiming:
        // `inject` bounded the product, so the cast cannot overflow.
        job.remaining = Duration::ticks(static_cast<std::int64_t>(
            static_cast<double>(spec.cost.count()) * injection->cost_factor));
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

  ProcessorState& p = processors_[processor];
  if (p.crashed) return;

  // Schedule the next periodic release into the task's own slot, which
  // this release just vacated.
  const Instant next = now_ + spec.period;
  if (next.since_epoch() < horizon_) {
    slots_[task].activation = activation + 1;
    schedule(task, next);
  }

  p.ready.push_back(job);
  std::push_heap(p.ready.begin(), p.ready.end(), runs_after);
  if (!p.current.has_value()) {
    dispatch(processor);
    return;
  }
  if (policy != SchedPolicy::kNonPreemptiveFifo &&
      job.rank < p.current->rank) {
    // Preempt: bank the current job's progress and re-queue it.
    cancel(completion_slot(processor));
    Job preempted = *p.current;
    preempted.remaining -= now_ - p.service_start;
    p.current.reset();
    p.ready.push_back(preempted);
    std::push_heap(p.ready.begin(), p.ready.end(), runs_after);
    dispatch(processor);
  }
}

void Platform::dispatch(std::uint32_t processor) {
  ProcessorState& p = processors_[processor];
  FCM_REQUIRE(!p.current.has_value(), "dispatch on a busy processor");
  if (p.ready.empty()) {
    disturbance_[processor].reset();
    return;
  }
  std::pop_heap(p.ready.begin(), p.ready.end(), runs_after);
  p.current = p.ready.back();
  p.ready.pop_back();
  p.service_start = now_;

  // Track whether a timing-inflated job is monopolizing this processor.
  const FaultInjection* injection =
      injection_for(p.current->task, p.current->activation);
  if (injection != nullptr && injection->kind == FaultKind::kTiming) {
    disturbance_[processor] = p.current->task;
  }

  schedule(completion_slot(processor), now_ + p.current->remaining);
}

void Platform::complete_current(std::uint32_t processor) {
  ProcessorState& p = processors_[processor];
  FCM_REQUIRE(p.current.has_value(), "completion on an idle processor");
  const Job job = *p.current;
  p.current.reset();
  finish_job(job);
  dispatch(processor);
}

void Platform::finish_job(const Job& job) {
  const TaskSpec& spec = spec_.tasks[job.task];
  TaskStats& stats = report_.tasks[job.task];
  TaskState& state = task_states_[job.task];
  ++stats.completions;

  // ---- Deadline check (timing failures). ----
  if (now_ > job.absolute_deadline) {
    ++stats.deadline_misses;
    ++stats.failures;
    const std::uint32_t processor = spec.processor.value();
    const auto& blame = disturbance_[processor];
    if (blame.has_value() && *blame != job.task) {
      ++stats.propagated_failures;
      report_.propagations.push_back(
          PropagationEvent{*blame, job.task, now_});
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
            PropagationEvent{input.origin, job.task, now_});
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
  if (injection != nullptr && injection->kind == FaultKind::kMemoryScribble &&
      !spec.writes.empty()) {
    const RegionId victim =
        spec.writes[rng_.below(static_cast<std::uint32_t>(
            spec.writes.size()))];
    regions_[victim.value()] = Taint{true, job.task};
    ++stats.own_faults;
  }

  // Erroneous internal state survives only with the configured
  // persistence (default: transient faults, stateless across activations).
  state.carried = erroneous && rng_.chance(spec.state_persistence)
                      ? origin
                      : Taint{};
}

SimReport Platform::run(Duration horizon) {
  FCM_REQUIRE(!ran_, "a Platform instance runs exactly once");
  FCM_REQUIRE(horizon > Duration::zero(), "horizon must be positive");
  ran_ = true;
  horizon_ = horizon;

  slots_.assign(
      spec_.tasks.size() + spec_.processors.size() + timed_events_.size(),
      Slot{});
  heap_.reserve(slots_.size());

  // Platform-level events first, so a crash or corruption scheduled at the
  // same instant as a release acts before it (sequence tie-break).
  const auto first_timed = static_cast<std::uint32_t>(
      spec_.tasks.size() + spec_.processors.size());
  for (std::size_t e = 0; e < timed_events_.size(); ++e) {
    const Duration at = timed_events_[e].at;
    if (at >= horizon) continue;
    schedule(first_timed + static_cast<std::uint32_t>(e),
             Instant::epoch() + at);
  }
  for (TaskIndex task = 0; task < spec_.tasks.size(); ++task) {
    const Duration offset = spec_.tasks[task].offset;
    if (offset < horizon) schedule(task, Instant::epoch() + offset);
  }

  while (!heap_.empty()) {
    const std::uint32_t slot = heap_.front();
    cancel(slot);  // pops the earliest pending slot
    now_ = slots_[slot].when;
    ++report_.events_dispatched;
    fire(slot);
  }
  return std::move(report_);
}

}  // namespace fcm::sim
