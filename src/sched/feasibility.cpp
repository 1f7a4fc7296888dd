#include "sched/feasibility.h"

#include <algorithm>
#include <numeric>

#include "sched/edf.h"
#include "sched/nonpreemptive.h"
#include "sched/rta.h"

namespace fcm::sched {

bool mixed_feasible(const std::vector<Job>& oneshot,
                    const std::vector<PeriodicTask>& periodic) {
  if (periodic.empty()) return edf_feasible(oneshot);
  if (total_utilization(periodic) > 1.0 + 1e-12) return false;

  // Hyperperiod via lcm, capped to keep the expansion tractable.
  constexpr std::int64_t kMaxHorizonTicks = 50'000'000;  // 50 s of ticks
  std::int64_t hyper = 1;
  bool overflow = false;
  for (const PeriodicTask& task : periodic) {
    hyper = std::lcm(hyper, task.period.count());
    if (hyper > kMaxHorizonTicks / 4) {
      overflow = true;
      break;
    }
  }
  if (!overflow) {
    Duration horizon = Duration::ticks(2 * hyper);
    for (const PeriodicTask& task : periodic) {
      horizon = std::max(horizon, task.offset + Duration::ticks(2 * hyper));
    }
    for (const Job& job : oneshot) {
      horizon = std::max(horizon, job.deadline.since_epoch());
    }
    if (horizon.count() <= kMaxHorizonTicks) {
      std::vector<Job> jobs = expand_to_jobs(periodic, horizon);
      // Re-id the one-shots past the expansion's id space.
      std::uint32_t next = static_cast<std::uint32_t>(jobs.size());
      for (Job job : oneshot) {
        job.id = JobId(next++);
        jobs.push_back(std::move(job));
      }
      return edf_feasible(jobs);
    }
  }
  // Fallback: deadline-monotonic RTA for the periodic part (sufficient),
  // requiring the one-shots to fit in the worst-case leftover — handled
  // conservatively by treating each one-shot as a pseudo-periodic task
  // with period = its full window.
  std::vector<PeriodicTask> all = periodic;
  for (const Job& job : oneshot) {
    PeriodicTask pseudo;
    pseudo.name = job.name;
    pseudo.period = job.deadline - job.release;
    pseudo.deadline = pseudo.period;
    pseudo.cost = job.cost;
    all.push_back(std::move(pseudo));
  }
  std::vector<std::size_t> order(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (all[a].deadline != all[b].deadline)
      return all[a].deadline < all[b].deadline;  // deadline-monotonic
    return a < b;
  });
  return fixed_priority_schedulable(all, order);
}

const char* to_string(Policy policy) noexcept {
  switch (policy) {
    case Policy::kPreemptiveEdf:
      return "preemptive-EDF";
    case Policy::kNonPreemptive:
      return "non-preemptive-exact";
    case Policy::kNonPreemptiveEdf:
      return "non-preemptive-EDF";
  }
  return "?";
}

bool feasible(Policy policy, const std::vector<Job>& jobs) {
  switch (policy) {
    case Policy::kPreemptiveEdf:
      return edf_feasible(jobs);
    case Policy::kNonPreemptive:
      return np_feasible(jobs);
    case Policy::kNonPreemptiveEdf:
      return np_edf_schedule(jobs).feasible;
  }
  return false;
}

}  // namespace fcm::sched
