// Collocation feasibility oracle.
//
// The mapping heuristics of §5/§6 repeatedly ask one question: can this set
// of SW modules share a processor and still meet all timing constraints?
// ("Several well-known scheduling algorithms can be used to check the
// feasibility of scheduling sets of these processes on the same processor.")
// `FeasibilityOracle` centralizes that check, caches verdicts (clustering
// revisits the same candidate sets), and lets callers choose the policy whose
// influence implications they are modelling.
#pragma once

#include <cstdint>
#include <unordered_map>
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

/// Answers (and caches the verdict of) "is this job set single-processor schedulable
/// under the policy?". Job sets are identified by the multiset of member
/// timing triples, so permuted queries hit the cache.
class FeasibilityOracle {
 public:
  explicit FeasibilityOracle(Policy policy = Policy::kPreemptiveEdf);

  [[nodiscard]] Policy policy() const noexcept { return policy_; }

  /// Whether the given jobs can share one processor.
  bool feasible(const std::vector<Job>& jobs);

  /// Number of distinct job sets actually analyzed (cache misses).
  [[nodiscard]] std::size_t analyses() const noexcept { return analyses_; }
  /// Number of queries answered from the cache.
  [[nodiscard]] std::size_t cache_hits() const noexcept { return hits_; }

 private:
  std::uint64_t fingerprint(const std::vector<Job>& jobs) const;

  Policy policy_;
  std::unordered_map<std::uint64_t, bool> cache_;
  std::size_t analyses_ = 0;
  std::size_t hits_ = 0;
};

}  // namespace fcm::sched
