// Preemptive earliest-deadline-first scheduling.
//
// EDF is optimal for independent jobs with release times on one processor,
// so `edf_schedule(...).feasible` is an *exact* feasibility test — the oracle
// the paper leans on when it requires that "the processes in the cluster must
// all be schedulable so that their timing requirements are met" (§5.4).
#pragma once

#include <vector>

#include "sched/job.h"

namespace fcm::sched {

/// Simulates preemptive EDF over the job set on one processor and returns
/// the resulting schedule. Jobs must be well-formed. O(n log n).
Schedule edf_schedule(const std::vector<Job>& jobs);

/// Exact single-processor feasibility for independent preemptible jobs:
/// the same verdict as edf_schedule(jobs).feasible, decided without
/// recording slices and returned at the first deadline miss.
bool edf_feasible(const std::vector<Job>& jobs);

/// The processor-demand criterion: for every interval [t1, t2] spanned by a
/// release and a deadline, the demand of jobs fully contained in it must not
/// exceed its length. Equivalent to edf_feasible for finite job sets; exposed
/// separately because it is the analytic (non-simulating) characterization
/// and is useful for property testing the simulator. O(n²).
bool processor_demand_feasible(const std::vector<Job>& jobs);

}  // namespace fcm::sched
