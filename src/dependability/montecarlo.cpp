#include "dependability/montecarlo.h"

#include <algorithm>
#include <map>

#include "common/batch_rng.h"
#include "common/error.h"
#include "common/ksum.h"
#include "common/rng.h"
#include "common/simd.h"
#include "exec/executor.h"
#include "obs/obs.h"

namespace fcm::dependability {

namespace {

// Replication semantics of one origin process, precomputed once per
// evaluation and shared read-only by every worker.
struct ProcessInfo {
  FcmId origin;
  std::vector<graph::NodeIndex> replicas;
  int replication = 1;
  core::Criticality criticality = 0;
};

// Tally of one fixed-size trial block. Counts are exact integers; the loss
// sum is compensated within the block in trial order, so folding blocks in
// index order reproduces one canonical floating-point result no matter
// which thread ran which block.
struct BlockTally {
  std::vector<std::uint32_t> survived;
  std::uint32_t all_ok = 0;
  std::uint32_t critical_ok = 0;
  double criticality_loss = 0.0;
  // Observability: fixed-point sweeps taken by the propagation loop, and
  // edges actually sampled. Tallied per block so the registry totals fold
  // deterministically like every other block quantity.
  std::uint64_t propagation_sweeps = 0;
  std::uint64_t edges_sampled = 0;
};

// Reusable per-worker scratch, allocated once per thread instead of per
// trial (the propagation edge-state vector dominated allocation cost in the
// single-threaded engine). SoA layout: byte flags instead of vector<bool>
// so the batched comparison kernel can write failure masks directly.
struct WorkerScratch {
  std::vector<std::uint8_t> hw_failed;
  std::vector<std::uint8_t> module_failed;
  std::vector<std::int8_t> edge_state;  // -1 unsampled, 0 no, 1 yes
};

void run_block(const mapping::SwGraph& sw,
               const mapping::ClusteringResult& clustering,
               const mapping::Assignment& assignment,
               const mapping::HwGraph& hw, const MissionModel& mission,
               const std::vector<ProcessInfo>& processes,
               core::Criticality critical_threshold, Rng rng,
               std::uint32_t first_trial, std::uint32_t last_trial,
               WorkerScratch& scratch, BlockTally& tally) {
  tally.survived.assign(processes.size(), 0);
  NeumaierSum loss_sum;
  const auto& edges = sw.influence_graph().edges();

  // BatchRng continues rng's exact stream through the SIMD backends:
  // uniforms are generated in batches, consumed in the same order and under
  // the same conditions as before, so every sampled value is bit-identical
  // to the serial engine for every backend and thread count.
  BatchRng batch(rng);
  const std::size_t hw_count = hw.node_count();

  for (std::uint32_t trial = first_trial; trial < last_trial; ++trial) {
    // 1. HW node failures: one fused SoA lottery batch per trial (identical
    // flags to fill + less_than, without materializing the uniforms).
    batch.bernoulli(mission.hw_failure.value(), scratch.hw_failed.data(),
                    hw_count);
    // 2. Module failures: host HW down, or intrinsic SW fault. The
    // short-circuit is load-bearing: a module on a dead host draws no SW
    // fault lottery, exactly as before.
    for (graph::NodeIndex v = 0; v < sw.node_count(); ++v) {
      const std::uint32_t cluster = clustering.partition.cluster_of[v];
      const HwNodeId host = assignment.hw_of[cluster];
      scratch.module_failed[v] = static_cast<std::uint8_t>(
          scratch.hw_failed[host.value()] != 0 ||
          batch.chance(mission.sw_fault));
    }
    // 3. Propagation along influence edges to a fixed point. Each edge is
    // sampled at most once per trial (a module corrupts a neighbor or not).
    if (mission.propagate) {
      std::fill(scratch.edge_state.begin(), scratch.edge_state.end(),
                static_cast<std::int8_t>(-1));
      bool changed = true;
      while (changed) {
        changed = false;
        ++tally.propagation_sweeps;
        for (std::size_t e = 0; e < edges.size(); ++e) {
          const graph::Edge& edge = edges[e];
          if (!scratch.module_failed[edge.from] ||
              scratch.module_failed[edge.to]) {
            continue;
          }
          if (edge.weight <= 0.0) continue;  // replica links don't propagate
          if (scratch.edge_state[e] < 0) {
            scratch.edge_state[e] =
                batch.chance(Probability::clamped(edge.weight)) ? 1 : 0;
            ++tally.edges_sampled;
          }
          if (scratch.edge_state[e] == 1) {
            scratch.module_failed[edge.to] = 1;
            changed = true;
          }
        }
      }
    }
    // 4. FT semantics per process.
    bool everything = true, critical = true;
    double lost = 0.0;
    for (std::size_t p = 0; p < processes.size(); ++p) {
      const ProcessInfo& info = processes[p];
      int ok = 0;
      for (const graph::NodeIndex v : info.replicas) {
        if (!scratch.module_failed[v]) ++ok;
      }
      bool delivered = false;
      if (info.replication <= 2) {
        delivered = ok >= 1;  // simplex / fail-stop duplex
      } else {
        const int voters = static_cast<int>(info.replicas.size());
        delivered = 2 * ok > voters;  // majority vote
      }
      if (delivered) {
        ++tally.survived[p];
      } else {
        everything = false;
        lost += info.criticality;
        if (info.criticality >= critical_threshold) critical = false;
      }
    }
    if (everything) ++tally.all_ok;
    if (critical) ++tally.critical_ok;
    loss_sum.add(lost);
  }
  tally.criticality_loss = loss_sum.value();
}

}  // namespace

DependabilityReport evaluate_mapping(
    const mapping::SwGraph& sw, const mapping::ClusteringResult& clustering,
    const mapping::Assignment& assignment, const mapping::HwGraph& hw,
    const MissionModel& mission, std::uint64_t seed,
    core::Criticality critical_threshold) {
  FCM_REQUIRE(mission.trials > 0, "at least one trial required");
  FCM_REQUIRE(mission.trials_per_block > 0,
              "trial block size must be positive");
  FCM_REQUIRE(assignment.hw_of.size() == clustering.partition.cluster_count,
              "assignment does not cover every cluster");
  FCM_OBS_SPAN("mc.evaluate");

  // Group SW nodes by their origin process; record replication semantics.
  std::map<FcmId, std::size_t> index_of;
  std::vector<ProcessInfo> processes;
  for (graph::NodeIndex v = 0; v < sw.node_count(); ++v) {
    const mapping::SwNode& node = sw.node(v);
    auto [it, inserted] = index_of.try_emplace(node.origin, processes.size());
    if (inserted) {
      ProcessInfo info;
      info.origin = node.origin;
      info.replication = node.attributes.replication;
      info.criticality = node.attributes.criticality;
      processes.push_back(std::move(info));
    }
    processes[it->second].replicas.push_back(v);
  }

  const std::uint32_t block_size = mission.trials_per_block;
  const std::uint32_t block_count =
      exec::block_count(mission.trials, block_size);
  const std::uint32_t threads =
      exec::resolve_threads(mission.threads, block_count);

  // The master generator exists only as the substream root: block b always
  // samples from substream(b), a pure function of (seed, b), so the sample
  // path of every block — and therefore every estimate — is invariant under
  // the thread count and the block execution order.
  const Rng master(seed);
  std::vector<BlockTally> tallies(block_count);
  std::vector<WorkerScratch> scratch(threads);
  for (WorkerScratch& s : scratch) {
    s.hw_failed.resize(hw.node_count());
    s.module_failed.resize(sw.node_count());
    s.edge_state.resize(sw.influence_graph().edge_count());
  }
  exec::parallel_for_blocks(
      block_count, threads, [&](std::uint64_t b, std::uint32_t lane) {
        const std::uint32_t block = static_cast<std::uint32_t>(b);
        const std::uint32_t first = block * block_size;
        const std::uint32_t last =
            exec::block_end(mission.trials, block_size, block);
        FCM_OBS_SPAN("mc.block", block);
        run_block(sw, clustering, assignment, hw, mission, processes,
                  critical_threshold, master.substream(block), first, last,
                  scratch[lane], tallies[block]);
      });

  // Deterministic reduction: integer counts commute; the loss totals fold
  // in block order through one more compensated sum.
  std::vector<std::uint64_t> survived(processes.size(), 0);
  std::uint64_t all_ok = 0, critical_ok = 0;
  std::uint64_t propagation_sweeps = 0, edges_sampled = 0;
  NeumaierSum loss_sum;
  for (const BlockTally& tally : tallies) {
    for (std::size_t p = 0; p < processes.size(); ++p) {
      survived[p] += tally.survived[p];
    }
    all_ok += tally.all_ok;
    critical_ok += tally.critical_ok;
    propagation_sweeps += tally.propagation_sweeps;
    edges_sampled += tally.edges_sampled;
    loss_sum.add(tally.criticality_loss);
  }

  // Work counters fold from the per-block tallies, so — like the estimates
  // themselves — the registry totals are identical for every thread count.
  FCM_OBS_COUNT("mc.evaluations", 1);
  FCM_OBS_COUNT("mc.trials", mission.trials);
  FCM_OBS_COUNT("mc.blocks", block_count);
  FCM_OBS_COUNT("mc.propagation_sweeps", propagation_sweeps);
  FCM_OBS_COUNT("mc.edges_sampled", edges_sampled);
  FCM_OBS_GAUGE("mc.threads", static_cast<double>(threads));

  DependabilityReport report;
  report.trials = mission.trials;
  report.threads_used = threads;
  report.blocks = block_count;
  report.process_survival.resize(processes.size());
  for (std::size_t p = 0; p < processes.size(); ++p) {
    report.process_survival[p] =
        static_cast<double>(survived[p]) / mission.trials;
  }
  report.system_survival = static_cast<double>(all_ok) / mission.trials;
  report.critical_survival =
      static_cast<double>(critical_ok) / mission.trials;
  report.expected_criticality_loss = loss_sum.value() / mission.trials;
  return report;
}

}  // namespace fcm::dependability
