// Monte Carlo dependability evaluation of a complete mapping.
//
// This quantifies the "goodness of dependable system integration" the paper
// calls for: given a clustering + assignment, sample HW node failures and
// SW module faults, propagate faults along the influence graph, apply the
// FT semantics (simplex / fail-stop duplex / voted TMR), and report
// delivered survival probabilities and expected criticality loss. Different
// mappings of the same SW graph produce measurably different dependability
// — which is the entire point of the framework.
#pragma once

#include <cstdint>
#include <vector>

#include "common/probability.h"
#include "common/rng.h"
#include "mapping/assignment.h"
#include "mapping/clustering.h"
#include "mapping/hw.h"
#include "mapping/swgraph.h"

namespace fcm::dependability {

/// Mission parameters for the sampled failures.
struct MissionModel {
  /// Per-HW-node failure probability over the mission.
  Probability hw_failure;
  /// Per-SW-module intrinsic fault probability over the mission.
  Probability sw_fault = Probability::zero();
  /// Whether failed modules corrupt others along influence edges.
  bool propagate = true;
  /// Monte Carlo trials.
  std::uint32_t trials = 20'000;
  /// Worker threads sharing the trial workload. 0 selects the hardware
  /// concurrency. Estimates are bitwise-identical for every thread count:
  /// trials are sharded into fixed-size blocks whose RNG substreams depend
  /// only on (seed, block index), and floating-point reductions run in
  /// block order.
  std::uint32_t threads = 1;
  /// Trials per work block (the sharding granule). Part of the sample-path
  /// identity: estimates depend on (seed, trials, trials_per_block), never
  /// on `threads`.
  std::uint32_t trials_per_block = 4096;
};

/// Per-process and system-level survival estimates.
struct DependabilityReport {
  /// Survival probability per original process FCM (FT semantics applied),
  /// indexed like the process list used to build the SW graph.
  std::vector<double> process_survival;
  /// Probability every process delivered.
  double system_survival = 0.0;
  /// Probability every critical process (criticality >= threshold)
  /// delivered.
  double critical_survival = 0.0;
  /// Mean total criticality of processes lost per mission.
  double expected_criticality_loss = 0.0;
  std::uint32_t trials = 0;
  /// Worker threads actually used for this evaluation.
  std::uint32_t threads_used = 0;
  /// Number of fixed-size trial blocks the workload was sharded into.
  std::uint32_t blocks = 0;
};

/// One sampled mission of a mapping: the trial model `evaluate_mapping` and
/// the rare-event estimator (resilience/rare_event.h) both sample. Every HW
/// node fails independently; a replica fails with its host or, on a live
/// host, by its intrinsic SW fault lottery; failures spread along positive
/// influence edges to a fixed point, each edge sampled at most once; and a
/// process delivers with `mapping::min_ok_replicas` good replicas.
///
/// Built once per evaluation and copied per worker lane: a copy keeps its
/// own failure flags, so lanes share no mutable state. The copies sit side
/// by side in one vector, so each starts on its own cache line: otherwise
/// one lane's per-trial counter writes evict the next lane's fields. A
/// trial draws from the caller's stream in a fixed order (hosts, replicas
/// in node order, edges in sweep order), so it is a pure function of that
/// stream.
class alignas(64) MissionTrial {
 public:
  /// Throws InvalidArgument unless `partition` covers `sw`, `assignment`
  /// covers every cluster, and every host is a node of `hw`. The trial
  /// reads `sw`'s influence edges in place, so `sw` must outlive it.
  MissionTrial(const mapping::SwGraph& sw, const graph::Partition& partition,
               const mapping::Assignment& assignment,
               const mapping::HwGraph& hw, Probability sw_fault,
               bool propagate);

  /// Samples one trial in which each HW node fails with probability
  /// `host_failure`.
  void run(Rng& rng, double host_failure);

  /// The processes `delivered` indexes (SwGraph::processes order).
  [[nodiscard]] const std::vector<mapping::SwProcess>& processes()
      const noexcept {
    return processes_;
  }
  [[nodiscard]] std::size_t hw_count() const noexcept {
    return hw_failed_.size();
  }
  /// Whether HW node `n` failed in the last trial.
  [[nodiscard]] bool host_failed(std::size_t n) const noexcept {
    return hw_failed_[n] != 0;
  }
  /// Whether process `p` delivered in the last trial.
  [[nodiscard]] bool delivered(std::size_t p) const noexcept {
    int ok = 0;
    for (const graph::NodeIndex v : processes_[p].replicas) {
      ok += module_failed_[v] == 0 ? 1 : 0;
    }
    return ok >= min_ok_[p];
  }

  /// Fixed-point sweeps and edge lotteries this copy has run.
  [[nodiscard]] std::uint64_t propagation_sweeps() const noexcept {
    return propagation_sweeps_;
  }
  [[nodiscard]] std::uint64_t edges_sampled() const noexcept {
    return edges_sampled_;
  }

 private:
  const std::vector<graph::Edge>* edges_;
  std::vector<mapping::SwProcess> processes_;
  std::vector<int> min_ok_;             // per process
  std::vector<std::uint32_t> host_of_;  // per SW node
  Probability sw_fault_;
  bool propagate_;
  std::vector<std::uint8_t> hw_failed_;
  std::vector<std::uint8_t> module_failed_;
  std::vector<std::int8_t> edge_state_;  // -1 unsampled, 0 no, 1 yes
  std::uint64_t propagation_sweeps_ = 0;
  std::uint64_t edges_sampled_ = 0;
};

/// Evaluates the mapping under the mission model. `seed` fixes the sample
/// path; identical inputs reproduce identical estimates, and the estimates
/// do not depend on `mission.threads` (each trial block draws from an RNG
/// substream keyed on the block index alone, and reductions run in block
/// order with compensated summation). Throws InvalidArgument when the
/// mapping does not fit `sw` and `hw` (see MissionTrial).
DependabilityReport evaluate_mapping(
    const mapping::SwGraph& sw, const mapping::ClusteringResult& clustering,
    const mapping::Assignment& assignment, const mapping::HwGraph& hw,
    const MissionModel& mission, std::uint64_t seed,
    core::Criticality critical_threshold = 7);

}  // namespace fcm::dependability
