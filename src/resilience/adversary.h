// Adversarial fault-schedule search: what is the *worst* injection schedule
// for a finished plan?
//
// The static 17-scenario grid (scenario.h) reports average-case survival;
// a certifier wants the minimum. This module runs a deterministic seeded
// search — greedy neighborhood descent with multiple restarts, optionally
// simulated annealing — over the scenario parameter space (which HW nodes
// to crash, which tasks to hit, injection times, burst lengths, correlated
// multi-event combinations) minimizing the campaign-evaluated critical
// survival of the plan. The result is a *certified* worst case: the
// concrete Scenario plus its full single-scenario campaign evaluation, not
// a heuristic score.
//
// Determinism: every candidate is scored by `run_campaign` under the PR-4
// contract (substream RNG, block-ordered folds), the search RNG derives
// from a reserved substream of the same seed, neighbor ties break on the
// canonical scenario encoding, and evaluations are cached under that
// encoding — the emitted report is byte-identical for every FCM_THREADS.
//
// Two restarts are informed rather than random: restart 0 descends from
// the static grid's argmin scenario, restart 1 from the correlated crash
// of the hosts carrying the most critical replicas (the schedule the grid
// never tries, and the reason the adversary beats it on example98).
#pragma once

#include <cstdint>
#include <string>

#include "resilience/bounds.h"
#include "resilience/campaign.h"

namespace fcm::resilience {

/// Search parameters. Defaults find the example98 worst case in well under
/// a second; scale `restarts`/`iterations` for larger fleets.
struct AdversaryOptions {
  /// Descent restarts. Restart 0 starts from the grid argmin, restart 1
  /// from the correlated critical-host crash, the rest from random
  /// scenarios.
  std::uint32_t restarts = 3;
  /// Descent iterations per restart.
  std::uint32_t iterations = 16;
  /// Candidate mutations generated per iteration.
  std::uint32_t neighbors = 6;
  /// Most events one scenario may combine (the correlation budget).
  std::uint32_t max_events = 3;
  /// Most processor-crash events within that budget.
  std::uint32_t max_crashes = 2;
  /// Accept uphill moves with probability exp(-delta/T) instead of greedy
  /// descent.
  bool anneal = false;
  double initial_temperature = 0.05;
  double cooling = 0.85;
  /// How each candidate is scored (trials, horizon, threads, recovery).
  CampaignOptions campaign;
};

/// The certified worst case and the search's audit trail.
struct AdversaryResult {
  Scenario worst;             ///< the minimizing fault schedule
  ScenarioResult evaluation;  ///< its full campaign evaluation
  double worst_critical_survival = 1.0;
  /// The static grid's weakest critical survival, and its scenario name,
  /// evaluated with the same campaign options and seed.
  double grid_min_critical_survival = 1.0;
  std::string grid_min_name;
  /// Whether the search found a schedule strictly below the grid minimum.
  bool beats_grid = false;
  std::uint64_t evaluations = 0;  ///< campaign evaluations actually run
  std::uint64_t cache_hits = 0;   ///< cached re-visits avoided
  /// Compositional bounds (bounds.h) on the worst scenario's critical
  /// survival, and whether the sampled figure is compatible with them
  /// (within a 99% binomial half-width).
  double bound_lower = 0.0;
  double bound_upper = 1.0;
  bool bound_consistent = false;
  std::uint64_t seed = 0;
};

/// Runs the adversarial search against one mapping. Byte-identical results
/// for every thread count; throws InvalidArgument on malformed inputs.
[[nodiscard]] AdversaryResult find_worst_case(
    const mapping::SwGraph& sw, const graph::Partition& partition,
    const mapping::Assignment& assignment, const mapping::HwGraph& hw,
    std::uint64_t seed, const AdversaryOptions& options = {});

/// Deterministic JSON: fixed key order, %.9g floats, thread-invariant.
[[nodiscard]] std::string to_json(const AdversaryResult& result);

}  // namespace fcm::resilience
