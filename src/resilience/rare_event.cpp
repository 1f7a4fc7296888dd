#include "resilience/rare_event.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/error.h"
#include "common/ksum.h"
#include "common/rng.h"
#include "dependability/montecarlo.h"
#include "exec/executor.h"
#include "obs/obs.h"

namespace fcm::resilience {

namespace {

// Substream index space: final-stage block b draws substream(b); pilot
// level l block b draws substream(kPilotBase + l * kPilotStride + b).
// Disjoint by construction for any practical trial count.
constexpr std::uint64_t kPilotBase = 1'000'000;
constexpr std::uint64_t kPilotStride = 10'000;

constexpr double kZ99 = 2.576;  // 99% normal quantile

// Tally of one fixed-size block of tilted trials. The weighted moments are
// compensated within the block in trial order, so folding blocks in index
// order reproduces one canonical result for any thread count.
struct BlockTally {
  NeumaierSum weighted_fail;     // sum of w * 1{critical lost}
  NeumaierSum weighted_fail_sq;  // sum of w^2 * 1{critical lost}
  NeumaierSum weight;            // sum of w
  NeumaierSum weight_sq;         // sum of w^2
  std::uint64_t hits = 0;        // trials that lost critical service
};

// One block of mission trials whose hosts fail with the tilted probability.
// The per-host likelihood ratio factors multiply in fixed host order, so
// the weight of a trial is a pure function of its substream draws.
void run_block(dependability::MissionTrial& trial,
               const RareEventOptions& options, double tilt, Rng rng,
               std::uint32_t first_trial, std::uint32_t last_trial,
               BlockTally& tally) {
  const double q = options.hw_failure.value();
  const double ratio_fail = tilt > 0.0 ? q / tilt : 0.0;
  const double ratio_ok = tilt < 1.0 ? (1.0 - q) / (1.0 - tilt) : 0.0;
  const std::vector<mapping::SwProcess>& processes = trial.processes();

  for (std::uint32_t t = first_trial; t < last_trial; ++t) {
    // Only the host lottery is tilted; intrinsic SW faults and propagation
    // keep their nominal probabilities.
    trial.run(rng, tilt);
    double weight = 1.0;
    for (std::size_t n = 0; n < trial.hw_count(); ++n) {
      weight *= trial.host_failed(n) ? ratio_fail : ratio_ok;
    }
    // One lost critical service is a hit.
    bool critical_ok = true;
    for (std::size_t p = 0; p < processes.size(); ++p) {
      if (processes[p].criticality < options.critical_threshold) continue;
      if (!trial.delivered(p)) {
        critical_ok = false;
        break;
      }
    }
    if (!critical_ok) {
      ++tally.hits;
      tally.weighted_fail.add(weight);
      tally.weighted_fail_sq.add(weight * weight);
    }
    tally.weight.add(weight);
    tally.weight_sq.add(weight * weight);
  }
}

}  // namespace

RareEventEstimate estimate_rare_event(const mapping::SwGraph& sw,
                                      const mapping::ClusteringResult& clustering,
                                      const mapping::Assignment& assignment,
                                      const mapping::HwGraph& hw,
                                      const RareEventOptions& options,
                                      std::uint64_t seed) {
  FCM_REQUIRE(options.trials > 0, "at least one trial required");
  FCM_REQUIRE(options.trials_per_block > 0,
              "trial block size must be positive");
  FCM_REQUIRE(options.tilt >= 0.0 && options.tilt < 1.0,
              "tilt must be in [0, 1)");
  FCM_OBS_SPAN("rare_event.estimate");

  const graph::Partition& partition = clustering.partition;
  dependability::MissionTrial trial(sw, partition, assignment, hw,
                                    options.sw_fault, options.propagate);
  const Rng master(seed);

  // ---- Tilt selection: explicit, or the multilevel pilot ladder. Levels
  // escalate geometrically from the nominal probability until failures are
  // common enough to measure; every pilot block draws from a reserved
  // substream range, so the chosen level is seed-deterministic. ----
  RareEventEstimate estimate;
  double tilt = options.tilt;
  if (tilt <= 0.0) {
    const double q = options.hw_failure.value();
    double level_tilt = std::clamp(q, 1e-4, 0.4);
    for (std::uint32_t level = 0; level < std::max(1u, options.max_levels);
         ++level) {
      ++estimate.levels_used;
      tilt = level_tilt;
      const std::uint32_t pilot_trials = std::max(1u, options.pilot_trials);
      const std::uint32_t pilot_blocks =
          exec::block_count(pilot_trials, options.trials_per_block);
      std::uint64_t pilot_hits = 0;
      for (std::uint32_t b = 0; b < pilot_blocks; ++b) {
        const std::uint32_t first = b * options.trials_per_block;
        const std::uint32_t last =
            exec::block_end(pilot_trials, options.trials_per_block, b);
        BlockTally tally;
        run_block(trial, options, tilt,
                  master.substream(kPilotBase + level * kPilotStride + b),
                  first, last, tally);
        pilot_hits += tally.hits;
      }
      const double hit_rate =
          static_cast<double>(pilot_hits) / static_cast<double>(pilot_trials);
      FCM_OBS_COUNT("rare_event.pilot_trials", pilot_trials);
      if (hit_rate >= options.target_hit_rate || level_tilt >= 0.4) break;
      level_tilt = std::min(0.4, level_tilt * 3.0);
    }
  }
  estimate.tilt_used = tilt;

  // ---- Final weighted stage: sharded blocks, substream(b), block-order
  // folds — the standard determinism contract. ----
  const std::uint32_t block_size = options.trials_per_block;
  const std::uint32_t block_count =
      exec::block_count(options.trials, block_size);
  const std::uint32_t threads =
      exec::resolve_threads(options.threads, block_count);

  std::vector<BlockTally> tallies(block_count);
  std::vector<dependability::MissionTrial> lanes(threads, trial);
  exec::parallel_for_blocks(
      block_count, threads, [&](std::uint64_t b, std::uint32_t lane) {
        const std::uint32_t block = static_cast<std::uint32_t>(b);
        const std::uint32_t first = block * block_size;
        const std::uint32_t last =
            exec::block_end(options.trials, block_size, block);
        FCM_OBS_SPAN("rare_event.block", block);
        run_block(lanes[lane], options, tilt, master.substream(block), first,
                  last, tallies[block]);
      });

  NeumaierSum weighted_fail, weighted_fail_sq, weight, weight_sq;
  std::uint64_t hits = 0;
  for (const BlockTally& tally : tallies) {
    weighted_fail.add(tally.weighted_fail.value());
    weighted_fail_sq.add(tally.weighted_fail_sq.value());
    weight.add(tally.weight.value());
    weight_sq.add(tally.weight_sq.value());
    hits += tally.hits;
  }

  const double n = static_cast<double>(options.trials);
  const double p_hat = weighted_fail.value() / n;
  const double second_moment = weighted_fail_sq.value() / n;
  const double variance =
      std::max(0.0, (second_moment - p_hat * p_hat) / n);
  estimate.failure_probability = p_hat;
  estimate.survival = 1.0 - p_hat;
  estimate.std_error = std::sqrt(variance);
  estimate.ci_low = std::max(0.0, p_hat - kZ99 * estimate.std_error);
  estimate.ci_high = std::min(1.0, p_hat + kZ99 * estimate.std_error);
  estimate.effective_samples =
      weight_sq.value() > 0.0
          ? weight.value() * weight.value() / weight_sq.value()
          : 0.0;
  estimate.hits = hits;
  estimate.trials = options.trials;
  estimate.trials_per_block = block_size;
  estimate.threads_used = threads;
  estimate.blocks = block_count;
  estimate.hw_failure = options.hw_failure.value();
  estimate.sw_fault = options.sw_fault.value();
  estimate.seed = seed;

  // ---- Cross-check against the compositional bound. The survival CI must
  // intersect [lower, upper]; a disjoint interval means the estimator or
  // the algebra is wrong. ----
  MissionBoundOptions bound_options;
  bound_options.hw_failure = options.hw_failure;
  bound_options.sw_fault = options.sw_fault;
  bound_options.critical_threshold = options.critical_threshold;
  const CompositionalBounds bounds =
      mission_bounds(sw, partition, assignment, bound_options);
  estimate.bound_lower = bounds.critical.lower;
  estimate.bound_upper = bounds.critical.upper;
  const double survival_low = 1.0 - estimate.ci_high;
  const double survival_high = 1.0 - estimate.ci_low;
  estimate.bound_consistent = survival_low <= estimate.bound_upper &&
                              survival_high >= estimate.bound_lower;

  FCM_OBS_COUNT("rare_event.estimates", 1);
  FCM_OBS_COUNT("rare_event.trials", options.trials);
  FCM_OBS_COUNT("rare_event.blocks", block_count);
  FCM_OBS_COUNT("rare_event.hits", hits);
  return estimate;
}

std::string to_json(const RareEventEstimate& estimate) {
  // %.9g: enough digits to round-trip the folded doubles distinguishably,
  // locale-independent, and identical for every thread count because the
  // doubles themselves are.
  const auto fmt_double = [](double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.9g", value);
    return std::string(buffer);
  };
  std::string json;
  json += "{\"seed\":" + std::to_string(estimate.seed);
  json += ",\"trials\":" + std::to_string(estimate.trials);
  json += ",\"trials_per_block\":" + std::to_string(estimate.trials_per_block);
  json += ",\"blocks\":" + std::to_string(estimate.blocks);
  json += ",\"hw_failure\":" + fmt_double(estimate.hw_failure);
  json += ",\"sw_fault\":" + fmt_double(estimate.sw_fault);
  json += ",\"tilt_used\":" + fmt_double(estimate.tilt_used);
  json += ",\"levels_used\":" + std::to_string(estimate.levels_used);
  json += ",\"hits\":" + std::to_string(estimate.hits);
  json += ",\"failure_probability\":" +
          fmt_double(estimate.failure_probability);
  json += ",\"survival\":" + fmt_double(estimate.survival);
  json += ",\"std_error\":" + fmt_double(estimate.std_error);
  json += ",\"ci_low\":" + fmt_double(estimate.ci_low);
  json += ",\"ci_high\":" + fmt_double(estimate.ci_high);
  json += ",\"effective_samples\":" + fmt_double(estimate.effective_samples);
  json += ",\"bound_lower\":" + fmt_double(estimate.bound_lower);
  json += ",\"bound_upper\":" + fmt_double(estimate.bound_upper);
  json += ",\"bound_consistent\":";
  json += estimate.bound_consistent ? "true" : "false";
  json += "}";
  return json;
}

}  // namespace fcm::resilience
