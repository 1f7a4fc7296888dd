// Collocation feasibility oracle.
//
// The mapping heuristics of §5/§6 repeatedly ask one question: can this set
// of SW modules share a processor and still meet all timing constraints?
// ("Several well-known scheduling algorithms can be used to check the
// feasibility of scheduling sets of these processes on the same processor.")
// `feasible` centralizes that check and lets callers choose the policy whose
// influence implications they are modelling.
#pragma once

#include <vector>

#include "sched/job.h"

namespace fcm::sched {

/// Scheduling policy assumed for a shared processor.
enum class Policy {
  kPreemptiveEdf,    ///< exact, optimal — the default oracle
  kNonPreemptive,    ///< exact branch-and-bound (bounded) over dispatch orders
  kNonPreemptiveEdf  ///< NP-EDF heuristic (sufficient only)
};

const char* to_string(Policy policy) noexcept;

/// Single-processor feasibility of a mixed workload: one-shot jobs plus
/// periodic tasks sharing the processor under preemptive EDF.
///
/// Method: utilization must not exceed 1; the periodic tasks are expanded
/// into concrete jobs over a horizon covering all offsets, every one-shot
/// deadline, and two hyperperiods, then the exact EDF simulation decides.
/// When the hyperperiod is astronomically large (non-harmonic periods) the
/// expansion is capped and deadline-monotonic response-time analysis is
/// used as a sufficient fallback — a conservative "infeasible" is then
/// possible but never a false "feasible".
bool mixed_feasible(const std::vector<Job>& oneshot,
                    const std::vector<PeriodicTask>& periodic);

/// Whether the given jobs can share one processor under the policy.
bool feasible(Policy policy, const std::vector<Job>& jobs);

}  // namespace fcm::sched
