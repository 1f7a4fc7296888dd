#include "sim/example98_platform.h"

#include <gtest/gtest.h>

#include "core/example98.h"
#include "sim/influence_estimator.h"

namespace fcm::sim {
namespace {

TEST(Example98Platform, StructureMatchesFigure3) {
  const PlatformSpec spec = example98_platform();
  EXPECT_EQ(spec.tasks.size(), 8u);
  EXPECT_EQ(spec.processors.size(), 8u);
  EXPECT_EQ(spec.regions.size(), 12u);  // one region per Fig. 3 edge
  EXPECT_EQ(example98_edges().size(), 12u);
}

TEST(Example98Platform, EdgesMirrorTheCanonicalList) {
  const auto edges = example98_edges();
  const auto& canonical = core::example98::figure3_edges();
  ASSERT_EQ(edges.size(), canonical.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    EXPECT_EQ("p" + std::to_string(edges[i].from + 1), canonical[i].from);
    EXPECT_EQ("p" + std::to_string(edges[i].to + 1), canonical[i].to);
    EXPECT_DOUBLE_EQ(edges[i].weight, canonical[i].weight);
  }
}

TEST(Example98Platform, FaultFreeRunIsClean) {
  const PlatformSpec spec = example98_platform();
  Platform platform(spec, 5);
  const SimReport report = platform.run(Duration::millis(100));
  for (const TaskStats& stats : report.tasks) {
    EXPECT_EQ(stats.failures, 0u);
    EXPECT_EQ(stats.deadline_misses, 0u);
  }
}

TEST(Example98Platform, MeasuredDirectInfluenceTracksAssumedWeights) {
  InfluenceEstimator estimator(example98_platform(), 99);
  EstimatorOptions options;
  options.trials = 200;
  options.horizon = Duration::millis(100);
  // Measure from p1: direct edges p1->p2 (0.7) and p1->p4 (0.2).
  const auto estimates = estimator.estimate_from(0, options);
  EXPECT_NEAR(estimates[1].influence(), 0.7, 0.12);
  // p1 -> p4 sits on the p1->p2->p1 feedback cycle: the returning taint
  // gives the p1->p4 edge repeated transmission chances, so the measured
  // value runs above the single-shot 0.2 (the Eq. 3 series effect).
  EXPECT_NEAR(estimates[3].influence(), 0.2, 0.16);
  EXPECT_GT(estimates[3].influence(), 0.1);
  // p1 has no edge to p7 directly; only long chains reach it, so the
  // measured value must be well below the direct neighbors'.
  EXPECT_LT(estimates[6].influence(), estimates[1].influence());
}

TEST(Example98Platform, TransitiveInfluenceObserved) {
  // p1 -> p2 -> p3 chain: injecting into p1 must sometimes fail p3, at a
  // rate near the Eq. 3 second-order term 0.7 * 0.5 = 0.35.
  InfluenceEstimator estimator(example98_platform(), 123);
  EstimatorOptions options;
  options.trials = 300;
  options.horizon = Duration::millis(100);
  const auto estimates = estimator.estimate_from(0, options);
  EXPECT_GT(estimates[2].influence(), 0.2);
  EXPECT_LT(estimates[2].influence(), 0.6);
}

}  // namespace
}  // namespace fcm::sim
