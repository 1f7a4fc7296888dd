// Bridge test: the ftmech mechanisms produce the statistics the influence
// model consumes. A recovery block's measured failure rate becomes the
// quality figure §4.2.3 attributes to it ("f4 depends on how good the
// recovery blocks are"), and a voter's availability calibrates a simulated
// task's input check.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/influence.h"
#include "ftmech/recovery_block.h"
#include "ftmech/voter.h"
#include "sim/platform.h"

namespace fcm {
namespace {

TEST(FtmechBridge, RecoveryBlockFailureRateFeedsTransmission) {
  // A recovery block whose primary fails 40% of the time and whose backup
  // fails 50% of *those* cases: measured block failure rate ~= 0.2.
  Rng rng(5);
  ftmech::RecoveryBlock<int> block([](const int& v) { return v >= 0; });
  block.add_alternate("primary", [&rng]() -> int {
    return rng.uniform() < 0.4 ? -1 : 1;
  });
  block.add_alternate("backup", [&rng]() -> int {
    return rng.uniform() < 0.5 ? -1 : 2;
  });
  int executions = 0;
  for (int i = 0; i < 4000; ++i) {
    try {
      block.execute();
    } catch (const ftmech::AllAlternatesFailed&) {
    }
    ++executions;
  }
  EXPECT_NEAR(block.failure_rate(), 0.2, 0.03);

  // The measured rate slots into Eq. 1 as the message-error transmission
  // probability of the task-level factor.
  core::InfluenceFactor factor;
  factor.kind = core::FactorKind::kMessagePassing;
  factor.occurrence = Probability(0.1);
  factor.transmission = Probability::clamped(block.failure_rate());
  factor.effect = Probability(0.5);
  EXPECT_NEAR(factor.probability().value(),
              0.1 * block.failure_rate() * 0.5, 1e-12);
}

TEST(FtmechBridge, VoterAvailabilityCalibratesInputCheck) {
  // Simulate replica outputs with independent 20% corruption; the TMR
  // voter's measured availability tells us how often bad data is masked.
  Rng rng(11);
  ftmech::VoterStats stats;
  for (int round = 0; round < 5000; ++round) {
    std::vector<int> replicas;
    for (int r = 0; r < 3; ++r) {
      replicas.push_back(rng.uniform() < 0.2 ? 100 + round + r : 7);
    }
    ftmech::record_round(stats, std::span<const int>(replicas));
  }
  // P(majority of correct) = P(>=2 of 3 correct) = 3*.8^2*.2 + .8^3 = .896
  EXPECT_NEAR(stats.availability(), 0.896, 0.02);

  // Use the voter's masking power as the input-check probability of a
  // simulated consumer: fewer propagated failures than without it.
  auto build = [&](double check) {
    sim::PlatformSpec spec;
    const ProcessorId cpu = spec.add_processor("cpu0");
    const RegionId shared = spec.add_region("shared");
    sim::TaskSpec producer;
    producer.name = "producer";
    producer.processor = cpu;
    producer.period = Duration::millis(10);
    producer.deadline = Duration::millis(10);
    producer.cost = Duration::millis(1);
    producer.writes = {shared};
    producer.fault_rate = Probability(0.3);
    spec.add_task(producer);
    sim::TaskSpec consumer = producer;
    consumer.name = "consumer";
    consumer.offset = Duration::millis(5);
    consumer.writes.clear();
    consumer.reads = {shared};
    consumer.fault_rate = Probability::zero();
    consumer.input_check = Probability::clamped(check);
    spec.add_task(consumer);
    return spec;
  };
  const sim::PlatformSpec unguarded_spec = build(0.0);
  const sim::PlatformSpec guarded_spec = build(stats.availability());
  sim::Platform unguarded(unguarded_spec, 3);
  sim::Platform guarded(guarded_spec, 3);
  const auto raw = unguarded.run(Duration::seconds(2));
  const auto masked = guarded.run(Duration::seconds(2));
  EXPECT_LT(masked.tasks[1].propagated_failures,
            raw.tasks[1].propagated_failures);
  EXPECT_GT(masked.tasks[1].detected_inputs, 0u);
}

}  // namespace
}  // namespace fcm
