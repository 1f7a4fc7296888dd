// Rare-event survival estimation by multilevel importance sampling.
//
// Plain Monte Carlo needs ~100/p trials to see a failure of probability p:
// measuring a 0.99999 survival figure (p = 1e-5) costs 10^7 trials. This
// estimator samples the dependability trial model (montecarlo.h — per-host
// failures, per-module intrinsic faults, probabilistic propagation) under a
// *tilted* host-failure probability q* >> q, weighting each trial by the
// exact likelihood ratio (q/q*)^k ((1-q)/(1-q*))^(H-k) for k failed hosts
// of H. Failures become common under the tilt, and the weighted average is
// an unbiased estimate of the nominal failure probability with a variance
// the weighted second moment measures directly — tight confidence
// intervals from ~10^4 trials.
//
// The tilt is chosen by a multilevel pilot ladder: geometrically escalating
// tilt levels run short pilot sweeps until failures are common enough
// (>= target_hit_rate) or the ladder caps out, all from deterministic
// substreams, so the selected level — like everything else here — is a pure
// function of (inputs, seed).
//
// Determinism contract (the PR-1/PR-4 pattern): trials shard into fixed
// blocks, block b draws from master.substream(b), weighted sums fold per
// block with compensated summation in block order — estimates are bitwise-
// identical for every FCM_THREADS. Every estimate is cross-checked against
// the closed-form compositional bounds (bounds.h); `bound_consistent`
// records whether the confidence interval intersects [lower, upper].
#pragma once

#include <cstdint>
#include <string>

#include "common/probability.h"
#include "mapping/assignment.h"
#include "mapping/clustering.h"
#include "mapping/hw.h"
#include "resilience/bounds.h"

namespace fcm::resilience {

/// Estimator parameters. Defaults suit survival figures down to ~1e-6.
struct RareEventOptions {
  /// Nominal per-host failure probability over the mission.
  Probability hw_failure;
  /// Nominal per-module intrinsic fault probability (not tilted).
  Probability sw_fault = Probability::zero();
  /// Whether failed modules corrupt others along influence edges.
  bool propagate = true;
  /// Weighted trials at the selected tilt level.
  std::uint32_t trials = 10'000;
  /// Trials per work block (part of the sample-path identity).
  std::uint32_t trials_per_block = 256;
  /// Worker threads (0 = hardware concurrency; results never depend on it).
  std::uint32_t threads = 1;
  /// Explicit tilted host-failure probability. 0 = choose automatically
  /// with the pilot ladder.
  double tilt = 0.0;
  /// Pilot trials per ladder level during automatic tilt selection.
  std::uint32_t pilot_trials = 512;
  /// Maximum ladder levels (tilt escalations) during automatic selection.
  std::uint32_t max_levels = 6;
  /// Automatic selection stops at the first level whose pilot failure rate
  /// reaches this.
  double target_hit_rate = 0.2;
  core::Criticality critical_threshold = 7;
};

/// One rare-event estimate with its uncertainty and its bound cross-check.
/// All floats fold deterministically; `to_json` renders byte-identically
/// for every thread count.
struct RareEventEstimate {
  double failure_probability = 0.0;  ///< IS estimate of 1 - survival
  double survival = 1.0;             ///< critical survival estimate
  double std_error = 0.0;            ///< standard error of the estimate
  double ci_low = 0.0;               ///< 99% CI on failure_probability
  double ci_high = 1.0;
  double tilt_used = 0.0;       ///< tilted host-failure probability
  std::uint32_t levels_used = 0;  ///< pilot ladder levels evaluated
  double effective_samples = 0.0;  ///< ESS = (sum w)^2 / sum w^2
  std::uint64_t hits = 0;       ///< tilted trials that lost critical service
  std::uint32_t trials = 0;
  std::uint32_t trials_per_block = 0;
  std::uint32_t threads_used = 0;  ///< diagnostic; omitted from to_json
  std::uint32_t blocks = 0;
  double hw_failure = 0.0;  ///< nominal mission parameters, echoed back
  double sw_fault = 0.0;
  double bound_lower = 0.0;  ///< compositional bounds on survival
  double bound_upper = 1.0;
  bool bound_consistent = false;  ///< survival CI intersects the bounds
  std::uint64_t seed = 0;
};

/// Runs the estimator for the mapping's critical-service survival under the
/// mission model. Bitwise-identical results for every `options.threads`.
/// Throws InvalidArgument when the mapping does not fit `sw` and `hw`
/// (see dependability::MissionTrial).
[[nodiscard]] RareEventEstimate estimate_rare_event(
    const mapping::SwGraph& sw, const mapping::ClusteringResult& clustering,
    const mapping::Assignment& assignment, const mapping::HwGraph& hw,
    const RareEventOptions& options, std::uint64_t seed);

/// Deterministic JSON: fixed key order, %.9g floats, thread-invariant.
[[nodiscard]] std::string to_json(const RareEventEstimate& estimate);

}  // namespace fcm::resilience
