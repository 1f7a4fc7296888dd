// The parallel Monte Carlo engine's contract: results are a pure function
// of (model, seed) — bitwise identical for every thread count — and agree
// with closed-form reliability. Also pins the compensated-summation path
// with a golden §6 worked-example estimate.
#include "dependability/montecarlo.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "common/ksum.h"
#include "common/simd.h"
#include "core/example98.h"
#include "dependability/reliability.h"

namespace fcm::dependability {
namespace {

using core::example98::make_instance;

struct Fixture {
  core::example98::Instance instance = make_instance();
  mapping::SwGraph sw = mapping::SwGraph::build(
      instance.hierarchy, instance.influence, instance.processes);
  mapping::HwGraph hw = mapping::HwGraph::complete(6);
  mapping::ClusteringResult clustering;
  mapping::Assignment assignment;

  Fixture() {
    mapping::ClusteringOptions options;
    options.target_clusters = 6;
    mapping::ClusterEngine engine(sw, options);
    clustering = engine.h1_greedy();
    assignment = mapping::assign_by_importance(sw, clustering, hw);
  }

  [[nodiscard]] DependabilityReport run(const MissionModel& mission,
                                        std::uint64_t seed) const {
    return evaluate_mapping(sw, clustering, assignment, hw, mission, seed);
  }
};

void expect_identical(const DependabilityReport& a,
                      const DependabilityReport& b) {
  EXPECT_DOUBLE_EQ(a.system_survival, b.system_survival);
  EXPECT_DOUBLE_EQ(a.critical_survival, b.critical_survival);
  EXPECT_DOUBLE_EQ(a.expected_criticality_loss, b.expected_criticality_loss);
  ASSERT_EQ(a.process_survival.size(), b.process_survival.size());
  for (std::size_t p = 0; p < a.process_survival.size(); ++p) {
    EXPECT_DOUBLE_EQ(a.process_survival[p], b.process_survival[p]);
  }
}

TEST(MonteCarloParallel, BitwiseIdenticalAcrossThreadCounts) {
  Fixture fx;
  MissionModel mission;
  mission.hw_failure = Probability(0.12);
  mission.sw_fault = Probability(0.03);
  mission.propagate = true;
  mission.trials = 20'000;

  mission.threads = 1;
  const DependabilityReport reference = fx.run(mission, 77);
  EXPECT_EQ(reference.threads_used, 1u);
  for (const std::uint32_t threads : {2u, 4u, 8u}) {
    mission.threads = threads;
    const DependabilityReport parallel = fx.run(mission, 77);
    expect_identical(reference, parallel);
  }
  mission.threads = 0;  // auto: hardware concurrency, still identical
  expect_identical(reference, fx.run(mission, 77));
}

TEST(MonteCarloParallel, IdenticalWhenTrialsDoNotFillTheLastBlock) {
  // 10'001 trials with 4096-trial blocks leaves a ragged final block; the
  // reduction must still be invariant in the thread count.
  Fixture fx;
  MissionModel mission;
  mission.hw_failure = Probability(0.2);
  mission.trials = 10'001;
  mission.threads = 1;
  const DependabilityReport reference = fx.run(mission, 5);
  EXPECT_EQ(reference.blocks, 3u);
  mission.threads = 8;
  expect_identical(reference, fx.run(mission, 5));
}

TEST(MonteCarloParallel, BitwiseIdenticalAcrossSimdBackends) {
  // The batched lottery kernels must not change a single estimate: every
  // backend reproduces the scalar reference exactly, for a single ragged
  // block (37 trials: not a multiple of the 8-lane width or the 256-draw
  // refill) and for a multi-block run, at several thread counts.
  Fixture fx;
  MissionModel mission;
  mission.hw_failure = Probability(0.12);
  mission.sw_fault = Probability(0.03);
  mission.propagate = true;
  const simd::Backend saved = simd::active_backend();
  for (const std::uint32_t trials : {37u, 20'000u}) {
    mission.trials = trials;
    mission.threads = 1;
    simd::set_backend(simd::Backend::kScalarRef);
    const DependabilityReport reference = fx.run(mission, 77);
    if (trials == 37u) {
      EXPECT_EQ(reference.blocks, 1u);
    }
    simd::set_backend(simd::Backend::kSimd);
    for (const std::uint32_t threads : {1u, 4u}) {
      mission.threads = threads;
      expect_identical(reference, fx.run(mission, 77));
    }
  }
  simd::set_backend(saved);
}

TEST(MonteCarloParallel, MaximalBlockSizeIsOneBlock) {
  // A block size of UINT32_MAX must not wrap the block arithmetic: it is
  // one block drawn from substream(0), exactly like a block size equal to
  // the trial count.
  Fixture fx;
  MissionModel mission;
  mission.hw_failure = Probability(0.2);
  mission.sw_fault = Probability(0.05);
  mission.propagate = true;
  for (const std::uint32_t trials : {2u, 5'000u}) {
    mission.trials = trials;
    mission.trials_per_block = trials;
    const DependabilityReport reference = fx.run(mission, 11);
    mission.trials_per_block = UINT32_MAX;
    const DependabilityReport huge = fx.run(mission, 11);
    EXPECT_EQ(reference.blocks, 1u);
    EXPECT_EQ(huge.blocks, 1u);
    EXPECT_EQ(huge.trials, trials);
    expect_identical(reference, huge);
  }
}

TEST(MonteCarloParallel, ThreadCountIsClampedToBlockCount) {
  Fixture fx;
  MissionModel mission;
  mission.hw_failure = Probability(0.1);
  mission.trials = 100;  // a single block
  mission.threads = 16;
  const DependabilityReport report = fx.run(mission, 9);
  EXPECT_EQ(report.blocks, 1u);
  EXPECT_EQ(report.threads_used, 1u);
}

TEST(MonteCarloParallel, AgreesWithClosedFormReliabilityWithin3Sigma) {
  // HW faults only, no propagation: each process's survival follows its
  // replication closed form. Run with several threads to exercise the
  // parallel path end to end.
  Fixture fx;
  const double q = 0.2;
  MissionModel mission;
  mission.hw_failure = Probability(q);
  mission.propagate = false;
  mission.trials = 60'000;
  mission.threads = 4;
  const DependabilityReport report = fx.run(mission, 31);

  auto expect_within_3_sigma = [&](double estimate, double truth) {
    const double sigma =
        std::sqrt(truth * (1.0 - truth) / mission.trials);
    EXPECT_NEAR(estimate, truth, 3.0 * sigma);
  };
  // p1 is TMR, p2/p3 duplex, p4..p8 simplex (Table 1 FT column).
  expect_within_3_sigma(report.process_survival[0], tmr_reliability(1.0 - q));
  expect_within_3_sigma(report.process_survival[1], 1.0 - q * q);
  expect_within_3_sigma(report.process_survival[2], 1.0 - q * q);
  for (std::size_t p = 3; p < 8; ++p) {
    expect_within_3_sigma(report.process_survival[p], 1.0 - q);
  }
}

TEST(MonteCarloParallel, PinsTheSection6WorkedExampleEstimates) {
  // Golden regression for the compensated-summation reduction: the §6
  // example under the H1 mapping, full propagation, seed 98. These values
  // are a pure function of (model, seed) and must never drift — any change
  // to the sampling or reduction order is a breaking change to the
  // determinism contract.
  Fixture fx;
  MissionModel mission;
  mission.hw_failure = Probability(0.1);
  mission.sw_fault = Probability(0.02);
  mission.propagate = true;
  mission.trials = 20'000;
  mission.threads = 2;  // must not matter
  const DependabilityReport report = fx.run(mission, 98);
  EXPECT_NEAR(report.system_survival, 0.43859999999999999, 1e-12);
  EXPECT_NEAR(report.critical_survival, 0.6472, 1e-12);
  EXPECT_NEAR(report.expected_criticality_loss, 10.943049999999999, 1e-9);
  EXPECT_NEAR(report.process_survival[0], 0.65700000000000003, 1e-12);
  EXPECT_NEAR(report.process_survival[7], 0.84069999999999999, 1e-12);
}

TEST(NeumaierSum, CompensatesCatastrophicCancellation) {
  // Naive summation returns 0.0 here; the compensated sum keeps the 2.0.
  NeumaierSum sum;
  sum.add(1.0);
  sum.add(1e100);
  sum.add(1.0);
  sum.add(-1e100);
  EXPECT_DOUBLE_EQ(sum.value(), 2.0);
}

TEST(NeumaierSum, MatchesPlainSumOnBenignSequences) {
  NeumaierSum sum;
  double plain = 0.0;
  for (int i = 1; i <= 1000; ++i) {
    sum.add(1.0 / i);
    plain += 1.0 / i;
  }
  EXPECT_NEAR(sum.value(), plain, 1e-12);
}

}  // namespace
}  // namespace fcm::dependability
