#include "dependability/montecarlo.h"

#include <algorithm>

#include "common/error.h"
#include "common/ksum.h"
#include "common/rng.h"
#include "exec/executor.h"
#include "obs/obs.h"

namespace fcm::dependability {

MissionTrial::MissionTrial(const mapping::SwGraph& sw,
                           const graph::Partition& partition,
                           const mapping::Assignment& assignment,
                           const mapping::HwGraph& hw, Probability sw_fault,
                           bool propagate)
    : edges_(&sw.influence_graph().edges()),
      processes_(sw.processes()),
      host_of_(sw.node_count()),
      sw_fault_(sw_fault),
      propagate_(propagate),
      hw_failed_(hw.node_count()),
      module_failed_(sw.node_count()),
      edge_state_(edges_->size()) {
  FCM_REQUIRE(partition.cluster_of.size() == sw.node_count(),
              "partition does not cover the SW graph");
  FCM_REQUIRE(assignment.hw_of.size() == partition.cluster_count,
              "assignment does not cover every cluster");
  for (graph::NodeIndex v = 0; v < sw.node_count(); ++v) {
    const HwNodeId host = assignment.host(partition.cluster_of[v]);
    FCM_REQUIRE(host.valid() && host.value() < hw.node_count(),
                "assignment references an unknown HW node");
    host_of_[v] = host.value();
  }
  for (const mapping::SwProcess& process : processes_) {
    min_ok_.push_back(mapping::min_ok_replicas(process.replication,
                                               process.replicas.size()));
  }
}

void MissionTrial::run(Rng& stream, double host_failure) {
  // Draw from a local copy and hand its state back at the end: the
  // byte-flag stores below may alias the caller's generator, which would
  // send its state through memory on every draw.
  Rng rng = stream;
  // 1. HW node failures: one lottery per node, in node order.
  for (std::uint8_t& failed : hw_failed_) {
    failed = static_cast<std::uint8_t>(rng.uniform() < host_failure);
  }
  // 2. Module failures: host HW down, or intrinsic SW fault. The
  // short-circuit is load-bearing: a module on a dead host draws no SW
  // fault lottery.
  for (std::size_t v = 0; v < host_of_.size(); ++v) {
    module_failed_[v] = static_cast<std::uint8_t>(
        hw_failed_[host_of_[v]] != 0 || rng.chance(sw_fault_));
  }
  // 3. Propagation along influence edges to a fixed point. Each edge is
  // sampled at most once per trial (a module corrupts a neighbor or not).
  if (!propagate_) {
    stream = rng;
    return;
  }
  std::fill(edge_state_.begin(), edge_state_.end(),
            static_cast<std::int8_t>(-1));
  const std::vector<graph::Edge>& edges = *edges_;
  bool changed = true;
  while (changed) {
    changed = false;
    ++propagation_sweeps_;
    for (std::size_t e = 0; e < edges.size(); ++e) {
      const graph::Edge& edge = edges[e];
      if (!module_failed_[edge.from] || module_failed_[edge.to]) continue;
      if (edge.weight <= 0.0) continue;  // replica links don't propagate
      if (edge_state_[e] < 0) {
        edge_state_[e] = rng.chance(Probability::clamped(edge.weight)) ? 1
                                                                       : 0;
        ++edges_sampled_;
      }
      if (edge_state_[e] == 1) {
        module_failed_[edge.to] = 1;
        changed = true;
      }
    }
  }
  stream = rng;
}

namespace {

// Tally of one fixed-size trial block. Counts are exact integers; the loss
// sum is compensated within the block in trial order, so folding blocks in
// index order reproduces one canonical floating-point result no matter
// which thread ran which block.
struct BlockTally {
  std::vector<std::uint32_t> survived;
  std::uint32_t all_ok = 0;
  std::uint32_t critical_ok = 0;
  double criticality_loss = 0.0;
};

void run_block(MissionTrial& trial, const MissionModel& mission,
               core::Criticality critical_threshold, Rng rng,
               std::uint32_t first_trial, std::uint32_t last_trial,
               BlockTally& tally) {
  const std::vector<mapping::SwProcess>& processes = trial.processes();
  tally.survived.assign(processes.size(), 0);
  NeumaierSum loss_sum;
  for (std::uint32_t t = first_trial; t < last_trial; ++t) {
    trial.run(rng, mission.hw_failure.value());
    bool everything = true, critical = true;
    double lost = 0.0;
    for (std::size_t p = 0; p < processes.size(); ++p) {
      if (trial.delivered(p)) {
        ++tally.survived[p];
      } else {
        everything = false;
        lost += processes[p].criticality;
        if (processes[p].criticality >= critical_threshold) critical = false;
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
  FCM_OBS_SPAN("mc.evaluate");
  const MissionTrial trial(sw, clustering.partition, assignment, hw,
                           mission.sw_fault, mission.propagate);
  const std::size_t process_count = trial.processes().size();

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
  std::vector<MissionTrial> lanes(threads, trial);
  exec::parallel_for_blocks(
      block_count, threads, [&](std::uint64_t b, std::uint32_t lane) {
        const std::uint32_t block = static_cast<std::uint32_t>(b);
        const std::uint32_t first = block * block_size;
        const std::uint32_t last =
            exec::block_end(mission.trials, block_size, block);
        FCM_OBS_SPAN("mc.block", block);
        run_block(lanes[lane], mission, critical_threshold,
                  master.substream(block), first, last, tallies[block]);
      });

  // Deterministic reduction: integer counts commute; the loss totals fold
  // in block order through one more compensated sum.
  std::vector<std::uint64_t> survived(process_count, 0);
  std::uint64_t all_ok = 0, critical_ok = 0;
  NeumaierSum loss_sum;
  for (const BlockTally& tally : tallies) {
    for (std::size_t p = 0; p < process_count; ++p) {
      survived[p] += tally.survived[p];
    }
    all_ok += tally.all_ok;
    critical_ok += tally.critical_ok;
    loss_sum.add(tally.criticality_loss);
  }
  // Every block's propagation work lands on exactly one lane, so the lane
  // sums, like the estimates, are identical for every thread count.
  std::uint64_t propagation_sweeps = 0, edges_sampled = 0;
  for (const MissionTrial& lane : lanes) {
    propagation_sweeps += lane.propagation_sweeps();
    edges_sampled += lane.edges_sampled();
  }

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
  report.process_survival.resize(process_count);
  for (std::size_t p = 0; p < process_count; ++p) {
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
