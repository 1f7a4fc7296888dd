// Closed-form compositional survival bounds ("An Algebra of Fault
// Tolerance" style): fold per-replica reliability figures through the
// series / parallel / k-of-n structure the mapping's replication degrees
// induce, and emit rigorous two-sided bounds on the survival probabilities
// the campaign and Monte Carlo engines estimate by sampling.
//
// Soundness discipline — every bound is derived by monotone coupling on a
// shared probability space:
//   upper  remove failure sources the algebra cannot certify (probabilistic
//          propagation, corruption reads, bursts whose manifestation within
//          the horizon is not provable), keeping only the deterministic
//          kills (crashed hosts) and the exactly-known recovery lotteries.
//          Removing failures can only raise survival, so the fold is >= the
//          true probability — per process and jointly.
//   lower  add failure sources: every replica that could possibly be
//          reached by a fault (injection target, corruption reader, or a
//          positive-edge descendant of either) fails for sure and survives
//          only through its recovery lottery. Under that worst case the
//          remaining randomness is the independent per-replica recovery
//          draws, so the joint bound is the *product* of the per-process
//          folds — strictly tighter than the union bound.
//
// The estimators cross-check against these bounds (bench_adversary's
// `bound_consistent` flag, the bounds property test battery): a sampled
// estimate outside [lower - ci, upper + ci] means either the engine or the
// algebra is wrong, and CI fails.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/probability.h"
#include "common/time.h"
#include "core/attributes.h"
#include "mapping/assignment.h"
#include "mapping/clustering.h"
#include "mapping/hw.h"
#include "resilience/scenario.h"

namespace fcm::resilience {

/// A rigorous two-sided bound on one survival probability.
struct SurvivalBounds {
  double lower = 0.0;
  double upper = 1.0;

  /// Whether a point estimate is compatible with the bound, allowing
  /// `tolerance` of sampling slack on each side (typically a CI half-width).
  [[nodiscard]] bool contains(double estimate,
                              double tolerance = 0.0) const noexcept {
    return estimate >= lower - tolerance && estimate <= upper + tolerance;
  }
};

/// Bounds for one original process FCM.
struct ProcessBound {
  std::string name;
  core::Criticality criticality = 0;
  int replication = 1;
  SurvivalBounds survival;
};

/// One complete compositional fold: per-process bounds plus the joint
/// system / critical-service figures (upper = series min over the member
/// processes; lower = product of the per-process worst cases).
struct CompositionalBounds {
  SurvivalBounds system;
  SurvivalBounds critical;
  std::vector<ProcessBound> processes;
};

/// Exact success probability of the ftmech recovery episode
/// `campaign.cpp::attempt_recovery` runs for one failed replica:
/// majority-voted N-version re-execution for replication >= 3, a two-
/// alternate recovery block for duplexes, checkpoint rollback + restart for
/// simplexes. `failure` is the independent per-path failure probability.
[[nodiscard]] double recovery_success(int replication, Probability failure);

/// Probability a process delivers, i.e. has `mapping::min_ok_replicas` ok
/// replicas, given independent per-replica ok probabilities. Exact k-of-n
/// fold via convolution over the heterogeneous Bernoulli replicas.
[[nodiscard]] double delivery_probability(
    const std::vector<double>& replica_ok, int replication);

/// Half-width of a normal-approximation binomial confidence interval around
/// `p_hat` from `n` trials at `z` standard errors (default 2.576 = 99%),
/// with a 0.5/n continuity correction so zero-hit estimates still carry
/// slack.
[[nodiscard]] double binomial_halfwidth(double p_hat, std::uint64_t n,
                                        double z = 2.576);

/// Knobs shared with CampaignOptions (the bound must model the same trial
/// the campaign runs).
struct ScenarioBoundOptions {
  Duration horizon = Duration::millis(200);
  Probability recovery_failure = Probability(0.1);
  core::Criticality critical_threshold = 7;
};

/// Compositional bounds on one campaign scenario's survival figures, for
/// the mapping `partition`/`assignment` place on `hw`. Sound for every
/// scenario `run_campaign` accepts, for any thread count and seed.
[[nodiscard]] CompositionalBounds scenario_bounds(
    const mapping::SwGraph& sw, const graph::Partition& partition,
    const mapping::Assignment& assignment, const mapping::HwGraph& hw,
    const Scenario& scenario, const ScenarioBoundOptions& options = {});

/// The dependability Monte Carlo trial model (montecarlo.h): independent
/// per-host failures, independent per-module intrinsic faults, worst-case
/// probabilistic propagation along positive influence edges.
struct MissionBoundOptions {
  Probability hw_failure;
  Probability sw_fault = Probability::zero();
  core::Criticality critical_threshold = 7;
};

/// Compositional bounds on the mission survival figures
/// `dependability::evaluate_mapping` (and the rare-event estimator)
/// sample. Upper: exact no-propagation fold over per-host up-probabilities
/// (replicas sharing a host are handled jointly, so the fold is exact even
/// for degenerate mappings). Lower: all positive-edge ancestors of the
/// member replicas must be fault-free.
[[nodiscard]] CompositionalBounds mission_bounds(
    const mapping::SwGraph& sw, const graph::Partition& partition,
    const mapping::Assignment& assignment, const MissionBoundOptions& options);

}  // namespace fcm::resilience
