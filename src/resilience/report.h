// The machine-readable outcome of a fault-scenario campaign.
//
// Campaigns answer the question the paper poses but never quantifies for
// its §6 example: *which criticality levels survive which faults, and at
// what service level*. Every field folds deterministically from per-block
// tallies (see campaign.cpp), and `to_json` renders with fixed float
// formatting, so a report — and its serialization — is byte-identical for
// any worker thread count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/attributes.h"

namespace fcm::resilience {

/// Survival of one original process FCM under one scenario.
struct ProcessOutcome {
  std::string name;
  core::Criticality criticality = 0;
  int replication = 1;
  /// Fraction of trials in which the process delivered its service
  /// (simplex / fail-stop duplex: >= 1 replica ok; TMR: majority ok).
  double survival = 0.0;
};

/// What the graceful-degradation replanner did after the scenario's HW
/// losses (absent when the scenario crashes no processor).
struct ReplanSummary {
  bool attempted = false;
  bool feasible = false;
  std::size_t attempts = 0;
  /// Task names removed from service, in shed order (ascending importance).
  std::vector<std::string> shed;
  /// Surplus replicas dropped to fit the surviving HW (process survives).
  std::vector<std::string> dropped_replicas;
  /// Criticality levels with every process surviving / with losses.
  std::vector<core::Criticality> surviving_levels;
  std::vector<core::Criticality> lost_levels;
};

/// Aggregated outcome of all trials of one scenario.
struct ScenarioResult {
  std::string name;
  std::uint32_t trials = 0;
  double system_survival = 0.0;    ///< every process delivered
  double critical_survival = 0.0;  ///< every critical process delivered
  std::vector<ProcessOutcome> processes;
  std::uint64_t injections = 0;         ///< scenario events applied
  std::uint64_t task_failures = 0;      ///< manifested task failures
  std::uint64_t propagations = 0;       ///< observed fault propagations
  std::uint64_t jobs_abandoned = 0;     ///< jobs lost to processor crashes
  std::uint64_t deadline_misses = 0;
  std::uint64_t recoveries_attempted = 0;  ///< ftmech recovery runs
  std::uint64_t recoveries_succeeded = 0;
  ReplanSummary replan;
};

/// One campaign: a scenario grid evaluated against one mapping.
struct ResilienceReport {
  std::uint64_t seed = 0;
  std::uint32_t trials_per_scenario = 0;
  std::uint32_t trials_per_block = 0;
  core::Criticality critical_threshold = 7;
  /// Worker threads actually used. Diagnostic only: every other field is
  /// thread-invariant, and to_json deliberately omits this one so reports
  /// from different thread counts serialize identically.
  std::uint32_t threads_used = 0;
  std::uint64_t blocks = 0;  ///< scenarios × blocks per scenario
  std::vector<ScenarioResult> scenarios;

  /// The weakest critical-service figure across scenarios (1.0 when empty).
  [[nodiscard]] double worst_critical_survival() const;
};

/// Deterministic JSON rendering: keys in fixed order, floats as %.6f,
/// no whitespace dependence on locale or thread count.
[[nodiscard]] std::string to_json(const ResilienceReport& report);

}  // namespace fcm::resilience
