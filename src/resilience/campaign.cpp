#include "resilience/campaign.h"

#include <algorithm>
#include <set>

#include "common/error.h"
#include "exec/executor.h"
#include "ftmech/checkpoint.h"
#include "ftmech/nversion.h"
#include "ftmech/recovery_block.h"
#include "obs/obs.h"
#include "sim/platform.h"

namespace fcm::resilience {

namespace {

// Tally of one fixed-size trial block. All counters are exact integers, so
// folding blocks in index order reproduces one canonical result no matter
// which thread ran which block.
struct BlockTally {
  std::vector<std::uint32_t> delivered;
  std::uint32_t all_ok = 0;
  std::uint32_t critical_ok = 0;
  std::uint64_t injections = 0;
  std::uint64_t task_failures = 0;
  std::uint64_t propagations = 0;
  std::uint64_t jobs_abandoned = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t recoveries_attempted = 0;
  std::uint64_t recoveries_succeeded = 0;
};

// One recovery episode for a failed replica, driven through the real
// ftmech mechanism the process's replication degree calls for. The path
// outcomes are pre-drawn so every episode consumes a fixed number of RNG
// values for a given degree — the trial's draw sequence depends only on
// which replicas failed, never on mechanism internals.
bool attempt_recovery(int replication, Rng& rng, Probability failure) {
  if (replication >= 3) {
    // TMR and up: re-execute every version and majority-vote the results.
    ftmech::NVersionExecutor<int> executor;
    for (int version = 0; version < replication; ++version) {
      const bool fails = rng.chance(failure);
      executor.add_version("v" + std::to_string(version), [fails]() -> int {
        if (fails) throw FcmError("version failed");
        return 0;
      });
    }
    try {
      (void)executor.execute();
      return true;
    } catch (const ftmech::NoMajority&) {
      return false;
    }
  }
  if (replication == 2) {
    // Fail-stop duplex: primary alternate, then the backup, behind one
    // acceptance test.
    const bool primary_fails = rng.chance(failure);
    const bool backup_fails = rng.chance(failure);
    ftmech::RecoveryBlock<int> block([](const int&) { return true; });
    block.add_alternate("primary", [primary_fails]() -> int {
      if (primary_fails) throw FcmError("primary failed");
      return 0;
    });
    block.add_alternate("backup", [backup_fails]() -> int {
      if (backup_fails) throw FcmError("backup failed");
      return 0;
    });
    try {
      (void)block.execute();
      return true;
    } catch (const ftmech::AllAlternatesFailed&) {
      return false;
    }
  }
  // Simplex: roll back to the pre-fault checkpoint and restart once.
  ftmech::Checkpointed<int> state(0);
  state.checkpoint();
  state.value() = 1;  // the fault corrupted the working state
  state.rollback();
  return state.value() == 0 && !rng.chance(failure);
}

void run_block(const Scenario& scenario, const CompiledPlatform& compiled,
               const std::vector<mapping::SwProcess>& processes,
               const std::vector<std::uint32_t>& process_of_node,
               const std::vector<bool>& host_crashed,
               const CampaignOptions& options, Rng rng,
               std::uint32_t first_trial, std::uint32_t last_trial,
               BlockTally& tally) {
  const std::size_t node_count = process_of_node.size();
  tally.delivered.assign(processes.size(), 0);
  std::vector<bool> replica_ok(node_count);
  const auto& edges_regions = compiled.region_of_edge;

  for (std::uint32_t trial = first_trial; trial < last_trial; ++trial) {
    // The platform gets its own seed derived from the block stream, so its
    // internal draws never interleave with the recovery draws below.
    const std::uint64_t platform_seed =
        (static_cast<std::uint64_t>(rng()) << 32) | rng();
    sim::Platform platform(compiled.spec, platform_seed);
    for (const ScenarioEvent& event : scenario.events) {
      switch (event.kind) {
        case ScenarioEventKind::kProcessorCrash:
          platform.crash_processor_at(event.hw_node.value(), event.at);
          break;
        case ScenarioEventKind::kTaskFaultBurst: {
          sim::FaultInjection injection;
          injection.kind = sim::FaultKind::kValue;
          injection.target = event.task;
          injection.activation = event.activation;
          injection.count = event.burst;
          platform.inject(injection);
          break;
        }
        case ScenarioEventKind::kBabblingTask: {
          sim::FaultInjection injection;
          injection.kind = sim::FaultKind::kValue;
          injection.target = event.task;
          injection.activation = event.activation;
          injection.count = sim::FaultInjection::kForever;
          platform.inject(injection);
          break;
        }
        case ScenarioEventKind::kRegionCorruption: {
          const RegionId region = edges_regions[event.edge];
          FCM_REQUIRE(region.valid(),
                      "scenario corrupts a weight-0 replica link");
          platform.corrupt_region_at(
              region, event.at,
              static_cast<sim::TaskIndex>(event.task));
          break;
        }
      }
      ++tally.injections;
    }
    const sim::SimReport report = platform.run(options.horizon);

    tally.propagations += report.propagations.size();
    tally.jobs_abandoned += report.jobs_abandoned;
    for (std::size_t v = 0; v < node_count; ++v) {
      tally.task_failures += report.tasks[v].failures;
      tally.deadline_misses += report.tasks[v].deadline_misses;
      replica_ok[v] = !host_crashed[v] && report.tasks[v].failures == 0;
    }

    // Recovery pass: every failed replica on a live processor gets one
    // shot through its process's FT mechanism, in ascending node order.
    for (std::size_t v = 0; v < node_count; ++v) {
      if (host_crashed[v] || report.tasks[v].failures == 0) continue;
      ++tally.recoveries_attempted;
      const mapping::SwProcess& info = processes[process_of_node[v]];
      if (attempt_recovery(info.replication, rng,
                           options.recovery_failure)) {
        ++tally.recoveries_succeeded;
        replica_ok[v] = true;
      }
    }

    bool everything = true;
    bool critical = true;
    for (std::size_t p = 0; p < processes.size(); ++p) {
      const mapping::SwProcess& info = processes[p];
      int ok = 0;
      for (const graph::NodeIndex v : info.replicas) {
        if (replica_ok[v]) ++ok;
      }
      if (ok >= mapping::min_ok_replicas(info.replication,
                                         info.replicas.size())) {
        ++tally.delivered[p];
      } else {
        everything = false;
        if (info.criticality >= options.critical_threshold) critical = false;
      }
    }
    if (everything) ++tally.all_ok;
    if (critical) ++tally.critical_ok;
  }
}

}  // namespace

ResilienceReport run_campaign(const mapping::SwGraph& sw,
                              const graph::Partition& partition,
                              const mapping::Assignment& assignment,
                              const mapping::HwGraph& hw,
                              const std::vector<Scenario>& scenarios,
                              std::uint64_t seed,
                              const CampaignOptions& options) {
  FCM_REQUIRE(!scenarios.empty(), "at least one scenario required");
  FCM_REQUIRE(options.trials > 0, "at least one trial required");
  FCM_REQUIRE(options.trials_per_block > 0,
              "trial block size must be positive");
  FCM_OBS_SPAN("resilience.campaign");

  const CompiledPlatform compiled =
      compile_platform(sw, partition, assignment, hw);

  const std::vector<mapping::SwProcess> processes = sw.processes();
  std::vector<std::uint32_t> process_of_node(sw.node_count(), 0);
  for (std::uint32_t p = 0; p < processes.size(); ++p) {
    for (const graph::NodeIndex v : processes[p].replicas) {
      process_of_node[v] = p;
    }
  }

  // Per-scenario crash context: which simulated processors die, and which
  // replicas lose their host. Shared read-only across workers.
  std::vector<std::vector<bool>> host_crashed(scenarios.size());
  std::vector<std::vector<HwNodeId>> failed_hw(scenarios.size());
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    std::set<std::uint32_t> crashed;
    for (const ScenarioEvent& event : scenarios[s].events) {
      if (event.kind != ScenarioEventKind::kProcessorCrash) continue;
      FCM_REQUIRE(event.hw_node.valid() &&
                      event.hw_node.value() < hw.node_count(),
                  "scenario crashes an unknown HW node");
      if (crashed.insert(event.hw_node.value()).second) {
        failed_hw[s].push_back(event.hw_node);
      }
    }
    std::sort(failed_hw[s].begin(), failed_hw[s].end());
    host_crashed[s].assign(sw.node_count(), false);
    for (graph::NodeIndex v = 0; v < sw.node_count(); ++v) {
      const HwNodeId host = assignment.host(partition.cluster_of[v]);
      host_crashed[s][v] = crashed.count(host.value()) != 0;
    }
  }

  const std::uint32_t block_size = options.trials_per_block;
  const std::uint32_t blocks_per_scenario =
      exec::block_count(options.trials, block_size);
  const std::uint64_t total_blocks =
      std::uint64_t{scenarios.size()} * blocks_per_scenario;
  const std::uint32_t threads =
      exec::resolve_threads(options.threads, total_blocks);

  // Block g always samples substream(g): the sample path of every block —
  // and so every tally — is invariant under thread count and run order.
  const Rng master(seed);
  std::vector<BlockTally> tallies(total_blocks);
  exec::parallel_for_blocks(
      total_blocks, threads, [&](std::uint64_t g, std::uint32_t /*lane*/) {
        const std::uint64_t s = g / blocks_per_scenario;
        const auto b = static_cast<std::uint32_t>(g % blocks_per_scenario);
        const std::uint32_t first = b * block_size;
        const std::uint32_t last =
            exec::block_end(options.trials, block_size, b);
        FCM_OBS_SPAN("resilience.block", g);
        run_block(scenarios[s], compiled, processes, process_of_node,
                  host_crashed[s], options, master.substream(g), first, last,
                  tallies[g]);
      });

  ResilienceReport report;
  report.seed = seed;
  report.trials_per_scenario = options.trials;
  report.trials_per_block = block_size;
  report.critical_threshold = options.critical_threshold;
  report.threads_used = threads;
  report.blocks = total_blocks;
  report.scenarios.resize(scenarios.size());

  // Deterministic reduction, per scenario in block order; then one
  // sequential replanning episode for every scenario that lost HW.
  std::uint64_t total_injections = 0, total_failures = 0;
  std::uint64_t total_recovery_attempts = 0, total_recovery_successes = 0;
  std::uint64_t total_shed = 0, replans = 0;
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    ScenarioResult& result = report.scenarios[s];
    result.name = scenarios[s].name;
    result.trials = options.trials;
    std::vector<std::uint64_t> delivered(processes.size(), 0);
    std::uint64_t all_ok = 0, critical_ok = 0;
    for (std::uint32_t b = 0; b < blocks_per_scenario; ++b) {
      const BlockTally& tally =
          tallies[s * blocks_per_scenario + b];
      for (std::size_t p = 0; p < processes.size(); ++p) {
        delivered[p] += tally.delivered[p];
      }
      all_ok += tally.all_ok;
      critical_ok += tally.critical_ok;
      result.injections += tally.injections;
      result.task_failures += tally.task_failures;
      result.propagations += tally.propagations;
      result.jobs_abandoned += tally.jobs_abandoned;
      result.deadline_misses += tally.deadline_misses;
      result.recoveries_attempted += tally.recoveries_attempted;
      result.recoveries_succeeded += tally.recoveries_succeeded;
    }
    result.system_survival =
        static_cast<double>(all_ok) / options.trials;
    result.critical_survival =
        static_cast<double>(critical_ok) / options.trials;
    result.processes.resize(processes.size());
    for (std::size_t p = 0; p < processes.size(); ++p) {
      result.processes[p].name = processes[p].name;
      result.processes[p].criticality = processes[p].criticality;
      result.processes[p].replication = processes[p].replication;
      result.processes[p].survival =
          static_cast<double>(delivered[p]) / options.trials;
    }
    total_injections += result.injections;
    total_failures += result.task_failures;
    total_recovery_attempts += result.recoveries_attempted;
    total_recovery_successes += result.recoveries_succeeded;

    if (!failed_hw[s].empty()) {
      FCM_OBS_SPAN("resilience.replan", s);
      const mapping::ReplanResult replanned = mapping::replan_after_loss(
          sw, partition, assignment, hw, failed_hw[s], options.replan);
      result.replan.attempted = true;
      result.replan.feasible = replanned.feasible;
      result.replan.attempts = replanned.attempts;
      for (const mapping::SheddingRecord& record : replanned.shed) {
        result.replan.shed.push_back(record.name);
      }
      for (const mapping::SheddingRecord& record :
           replanned.dropped_replicas) {
        result.replan.dropped_replicas.push_back(record.name);
      }
      result.replan.surviving_levels = replanned.surviving_levels();
      result.replan.lost_levels = replanned.lost_levels();
      total_shed += replanned.shed.size();
      ++replans;
    }
  }

  // Registry totals fold from the per-block tallies and the sequential
  // replan loop, so — like the report itself — they are identical for
  // every thread count. No thread-count gauge on purpose: the CI smoke
  // byte-compares the metrics dump across FCM_THREADS values.
  FCM_OBS_COUNT("resilience.campaigns", 1);
  FCM_OBS_COUNT("resilience.scenarios", scenarios.size());
  FCM_OBS_COUNT("resilience.trials",
                static_cast<std::uint64_t>(options.trials) *
                    scenarios.size());
  FCM_OBS_COUNT("resilience.blocks", total_blocks);
  FCM_OBS_COUNT("resilience.injections", total_injections);
  FCM_OBS_COUNT("resilience.task_failures", total_failures);
  FCM_OBS_COUNT("resilience.recoveries.attempted", total_recovery_attempts);
  FCM_OBS_COUNT("resilience.recoveries.succeeded", total_recovery_successes);
  FCM_OBS_COUNT("resilience.replans", replans);
  FCM_OBS_COUNT("resilience.shed_tasks", total_shed);
  return report;
}

}  // namespace fcm::resilience
