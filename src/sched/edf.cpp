#include "sched/edf.h"

#include <algorithm>
#include <functional>
#include <queue>
#include <utility>

#include "common/error.h"

namespace fcm::sched {

namespace {

struct Ready {
  Instant deadline;
  std::size_t index;  // tie-break on index for determinism

  bool operator>(const Ready& other) const noexcept {
    if (deadline != other.deadline) return deadline > other.deadline;
    return index > other.index;
  }
};

/// The preemptive EDF release sweep shared by edf_schedule and
/// edf_feasible. Calls `ran(i, from, until)` for every interval job i
/// executes and `missed(i)` when job i completes past its deadline; stops
/// at the first miss when `missed` returns true.
template <typename Ran, typename Missed>
void edf_sweep(const std::vector<Job>& jobs, Ran&& ran, Missed&& missed) {
  for (const Job& job : jobs) {
    FCM_REQUIRE(job.cost > Duration::zero(),
                "job " + job.name + " must have positive cost");
  }
  if (jobs.empty()) return;

  // Jobs sorted by release for the arrival sweep.
  std::vector<std::size_t> by_release(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) by_release[i] = i;
  std::sort(by_release.begin(), by_release.end(),
            [&](std::size_t a, std::size_t b) {
              if (jobs[a].release != jobs[b].release)
                return jobs[a].release < jobs[b].release;
              return a < b;
            });

  // Each job is queued at most once at a time, so one reservation covers
  // the heap.
  std::vector<Ready> heap;
  heap.reserve(jobs.size());
  std::priority_queue<Ready, std::vector<Ready>, std::greater<>> ready(
      std::greater<>{}, std::move(heap));
  std::vector<Duration> remaining(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) remaining[i] = jobs[i].cost;

  std::size_t next_arrival = 0;
  Instant now = jobs[by_release[0]].release;

  while (next_arrival < by_release.size() || !ready.empty()) {
    // Admit everything released by `now`.
    while (next_arrival < by_release.size() &&
           jobs[by_release[next_arrival]].release <= now) {
      const std::size_t i = by_release[next_arrival++];
      ready.push(Ready{jobs[i].deadline, i});
    }
    if (ready.empty()) {
      now = jobs[by_release[next_arrival]].release;  // idle gap
      continue;
    }

    const Ready top = ready.top();
    ready.pop();
    const std::size_t i = top.index;

    // Run until completion or the next arrival, whichever first.
    Instant until = now + remaining[i];
    if (next_arrival < by_release.size()) {
      until = std::min(until, jobs[by_release[next_arrival]].release);
    }
    if (until > now) {
      ran(i, now, until);
      remaining[i] -= until - now;
    }
    now = until;

    if (remaining[i] > Duration::zero()) {
      ready.push(Ready{jobs[i].deadline, i});
    } else if (now > jobs[i].deadline && missed(i)) {
      return;
    }
  }
}

}  // namespace

Schedule edf_schedule(const std::vector<Job>& jobs) {
  Schedule schedule;
  schedule.feasible = true;
  edf_sweep(
      jobs,
      [&](std::size_t i, Instant from, Instant until) {
        // Coalesce with the previous slice when the same job continues.
        if (!schedule.slices.empty() &&
            schedule.slices.back().job == jobs[i].id &&
            schedule.slices.back().end == from) {
          schedule.slices.back().end = until;
        } else {
          schedule.slices.push_back(Slice{jobs[i].id, from, until});
        }
      },
      [&](std::size_t i) {
        if (schedule.feasible) {
          schedule.feasible = false;
          schedule.first_miss = jobs[i].id;
        }
        return false;  // keep sweeping: the schedule records every slice
      });
  return schedule;
}

bool edf_feasible(const std::vector<Job>& jobs) {
  // The same sweep with verdict-only bookkeeping: no slices, and the
  // answer is known at the first completion past a deadline.
  bool feasible = true;
  edf_sweep(
      jobs, [](std::size_t, Instant, Instant) {},
      [&](std::size_t) {
        feasible = false;
        return true;
      });
  return feasible;
}

bool processor_demand_feasible(const std::vector<Job>& jobs) {
  for (const Job& outer : jobs) {
    for (const Job& window_end : jobs) {
      const Instant t1 = outer.release;
      const Instant t2 = window_end.deadline;
      if (t2 <= t1) continue;
      Duration demand = Duration::zero();
      for (const Job& job : jobs) {
        if (job.release >= t1 && job.deadline <= t2) demand += job.cost;
      }
      if (demand > t2 - t1) return false;
    }
  }
  return true;
}

}  // namespace fcm::sched
