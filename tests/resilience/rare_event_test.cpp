// Importance-sampling estimator: unbiasedness against plain Monte Carlo,
// bitwise thread-invariance, the pilot tilt ladder, and the rare regime the
// estimator exists for.
#include "resilience/rare_event.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/error.h"
#include "common/simd.h"
#include "core/example98.h"
#include "dependability/montecarlo.h"
#include "mapping/planner.h"

namespace fcm::resilience {
namespace {

struct Mapping {
  core::example98::Instance instance;
  mapping::HwGraph hw;
  mapping::SwGraph sw;
  mapping::Plan plan;
};

const Mapping& mapping98() {
  static const Mapping m = [] {
    Mapping built;
    built.instance = core::example98::make_instance();
    built.hw = mapping::HwGraph::complete(core::example98::kHwNodes);
    mapping::IntegrationPlanner planner(built.instance.hierarchy,
                                        built.instance.influence,
                                        built.instance.processes, built.hw);
    built.plan = planner.best_plan();
    built.sw = planner.sw_graph();
    return built;
  }();
  return m;
}

RareEventEstimate estimate(const RareEventOptions& options,
                           std::uint64_t seed = 2026) {
  const Mapping& m = mapping98();
  return estimate_rare_event(m.sw, m.plan.clustering, m.plan.assignment,
                             m.hw, options, seed);
}

TEST(RareEvent, TiltEqualToNominalIsPlainMonteCarlo) {
  // With tilt == q every likelihood ratio is exactly 1, so the weighted
  // estimator degenerates to a plain Bernoulli average: hits/trials with
  // ESS == trials, bit for bit.
  RareEventOptions options;
  options.hw_failure = Probability(0.05);
  options.trials = 4'096;
  options.trials_per_block = 128;
  options.tilt = 0.05;
  const RareEventEstimate e = estimate(options);
  EXPECT_DOUBLE_EQ(e.tilt_used, 0.05);
  EXPECT_EQ(e.levels_used, 0u);  // explicit tilt skips the pilot ladder
  EXPECT_DOUBLE_EQ(e.failure_probability,
                   static_cast<double>(e.hits) / e.trials);
  EXPECT_DOUBLE_EQ(e.effective_samples, static_cast<double>(e.trials));
  EXPECT_TRUE(e.bound_consistent)
      << "survival CI [" << 1.0 - e.ci_high << ", " << 1.0 - e.ci_low
      << "] misses bounds [" << e.bound_lower << ", " << e.bound_upper << "]";
}

TEST(RareEvent, AgreesWithTheDependabilityEngineWithinTheInterval) {
  // Cross-estimator check at an easily reachable probability: the tilted
  // estimate and the untilted dependability Monte Carlo must agree within
  // the union of their uncertainties.
  const Mapping& m = mapping98();
  RareEventOptions options;
  options.hw_failure = Probability(0.05);
  options.trials = 10'000;
  const RareEventEstimate e = estimate(options);

  dependability::MissionModel mission;
  mission.hw_failure = options.hw_failure;
  mission.trials = 50'000;
  const auto plain = dependability::evaluate_mapping(
      m.sw, m.plan.clustering, m.plan.assignment, m.hw, mission, 9);
  const double plain_ci =
      binomial_halfwidth(plain.critical_survival, mission.trials);
  EXPECT_GE(plain.critical_survival, 1.0 - e.ci_high - plain_ci);
  EXPECT_LE(plain.critical_survival, 1.0 - e.ci_low + plain_ci);
  EXPECT_TRUE(e.bound_consistent);
}

TEST(RareEvent, EstimateIsBitwiseIdenticalAcrossThreadCounts) {
  RareEventOptions options;
  options.hw_failure = Probability(0.02);
  options.trials = 2'048;
  options.trials_per_block = 64;
  const auto run_with = [&](std::uint32_t threads) {
    options.threads = threads;
    return to_json(estimate(options));
  };
  const std::string json1 = run_with(1);
  EXPECT_EQ(json1, run_with(4));
  EXPECT_EQ(json1, run_with(8));
  // Ragged remainder block: 1000 % 64 != 0 exercises the short last block.
  options.trials = 1'000;
  const std::string ragged1 = run_with(1);
  EXPECT_EQ(ragged1, run_with(4));
  EXPECT_EQ(ragged1, run_with(8));
}

TEST(RareEvent, EstimateIsBitwiseIdenticalAcrossSimdBackends) {
  // The tilted lottery routes through the fused bernoulli kernel; every
  // backend must reproduce the scalar JSON byte for byte, including the
  // pilot ladder (no explicit tilt) and a ragged trial count.
  RareEventOptions options;
  options.hw_failure = Probability(0.02);
  options.trials = 1'003;  // not a multiple of block, lane, or buffer sizes
  options.trials_per_block = 64;
  options.threads = 4;
  const simd::Backend saved = simd::active_backend();
  simd::set_backend(simd::Backend::kScalarRef);
  const std::string reference = to_json(estimate(options));
  simd::set_backend(simd::Backend::kSimd);
  EXPECT_EQ(reference, to_json(estimate(options)));
  simd::set_backend(saved);
}

TEST(RareEvent, PilotLadderFindsAProductiveTiltInTheRareRegime) {
  // q = 0.002 makes critical failures a <~1e-3 event; plain MC at this
  // budget would see a handful of hits at best. The ladder must escalate
  // (levels_used > 0), land on a tilt above nominal, and the weighted
  // estimator must still collect real hits with a bound-consistent CI.
  RareEventOptions options;
  options.hw_failure = Probability(0.002);
  options.trials = 10'000;
  const RareEventEstimate e = estimate(options);
  EXPECT_GT(e.levels_used, 0u);
  EXPECT_GT(e.tilt_used, 0.002);
  EXPECT_GT(e.hits, 100u);  // the whole point of tilting
  EXPECT_GT(e.failure_probability, 0.0);
  EXPECT_LT(e.failure_probability, 0.05);
  EXPECT_LT(e.std_error, e.failure_probability);  // relative error < 100%
  EXPECT_TRUE(e.bound_consistent)
      << "survival " << e.survival << " CI [" << 1.0 - e.ci_high << ", "
      << 1.0 - e.ci_low << "] misses bounds [" << e.bound_lower << ", "
      << e.bound_upper << "]";
  EXPECT_EQ(e.seed, 2026u);
}

TEST(RareEvent, MaximalBlockSizeIsOneBlockPerStage) {
  // A block size of UINT32_MAX must not wrap the block arithmetic: every
  // pilot level and the final stage run one block from the same substream
  // as with a block size equal to the trial count, so only the
  // trials_per_block field differs.
  RareEventOptions options;
  options.hw_failure = Probability(0.01);
  options.trials = 512;
  options.pilot_trials = 256;
  options.trials_per_block = 512;
  const RareEventEstimate reference = estimate(options);
  options.trials_per_block = UINT32_MAX;
  RareEventEstimate huge = estimate(options);
  EXPECT_GT(reference.levels_used, 0u);
  EXPECT_EQ(reference.blocks, 1u);
  EXPECT_EQ(huge.blocks, 1u);
  EXPECT_EQ(huge.trials_per_block, UINT32_MAX);
  huge.trials_per_block = reference.trials_per_block;
  EXPECT_EQ(to_json(reference), to_json(huge));
}

TEST(RareEvent, SameSeedReproducesAndSeedsDiffer) {
  RareEventOptions options;
  options.hw_failure = Probability(0.05);
  options.trials = 1'024;
  options.trials_per_block = 64;
  EXPECT_EQ(to_json(estimate(options, 7)), to_json(estimate(options, 7)));
  EXPECT_NE(to_json(estimate(options, 7)), to_json(estimate(options, 8)));
}

TEST(RareEvent, JsonCarriesTheContractFields) {
  RareEventOptions options;
  options.hw_failure = Probability(0.05);
  options.trials = 512;
  options.trials_per_block = 64;
  const std::string json = to_json(estimate(options));
  for (const char* key :
       {"\"seed\":", "\"trials\":", "\"tilt_used\":", "\"levels_used\":",
        "\"hits\":", "\"failure_probability\":", "\"survival\":",
        "\"std_error\":", "\"ci_low\":", "\"ci_high\":",
        "\"effective_samples\":", "\"bound_lower\":", "\"bound_upper\":",
        "\"bound_consistent\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

TEST(RareEvent, MappingThatDoesNotFitItsPlatformIsRejected) {
  const Mapping& m = mapping98();
  RareEventOptions options;
  options.hw_failure = Probability(0.05);
  options.trials = 256;

  mapping::Assignment shifted = m.plan.assignment;
  for (HwNodeId& host : shifted.hw_of) host = HwNodeId(host.value() + 40);
  EXPECT_THROW((void)estimate_rare_event(m.sw, m.plan.clustering, shifted,
                                         mapping::HwGraph::complete(2),
                                         options, 2026),
               InvalidArgument);

  mapping::ClusteringResult truncated = m.plan.clustering;
  truncated.partition.cluster_of.resize(3);
  EXPECT_THROW((void)estimate_rare_event(m.sw, truncated, m.plan.assignment,
                                         m.hw, options, 2026),
               InvalidArgument);
}

}  // namespace
}  // namespace fcm::resilience
