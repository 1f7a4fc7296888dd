// Online graceful-degradation replanning after HW loss.
//
// The paper's allocation machinery (§5) is motivated by surviving HW faults
// through replication: replicas joined by weight-0 edges must sit on
// distinct HW nodes precisely so that losing one node loses at most one
// replica. This module closes that loop at run time: given an existing
// mapping and a set of failed HW nodes, it promotes the surviving replicas
// (the process lives on with reduced redundancy), re-clusters the surviving
// SW graph over the surviving HW graph with bounded retry/backoff, and —
// when capacity is insufficient — sheds tasks in ascending §5 importance
// order until the schedulability check passes. Shedding is monotone by
// construction: a task is only ever shed while every strictly
// lower-importance retained candidate has already been shed.
#pragma once

#include <string>
#include <vector>

#include "mapping/assignment.h"
#include "mapping/clustering.h"
#include "mapping/hw.h"
#include "mapping/quality.h"

namespace fcm::mapping {

/// Knobs for the replanner's retry/backoff loop.
struct ReplanOptions {
  sched::Policy policy = sched::Policy::kPreemptiveEdf;
  /// Maximum clustering+assignment attempts before giving up. Each failed
  /// attempt shrinks the candidate set by the current shed batch and the
  /// batch doubles (1, 2, 4, ...) — exponential backoff in shed work, so a
  /// deeply infeasible instance converges in O(log n) attempts.
  std::size_t max_attempts = 8;
  /// Criticality threshold separating "critical" for reporting.
  core::Criticality critical_threshold = 7;
  QualityOptions quality;
};

/// One task removed from service (or one replica dropped) during replan.
struct SheddingRecord {
  std::string name;        ///< SW node name, e.g. "p4" or "p1c"
  std::string process;     ///< origin process name
  double importance = 0.0;
  core::Criticality criticality = 0;
};

/// Post-replan fate of one original process.
struct ProcessSurvival {
  FcmId origin;
  std::string name;
  core::Criticality criticality = 0;
  int replicas_before = 0;  ///< mapped replicas before the HW loss
  int replicas_after = 0;   ///< replicas mapped by the repaired plan
  [[nodiscard]] bool survived() const noexcept { return replicas_after > 0; }
};

/// The outcome of one replanning episode.
struct ReplanResult {
  bool feasible = false;
  /// Original SW node indices still mapped, ascending.
  std::vector<graph::NodeIndex> kept;
  /// The surviving sub-SW-graph actually planned (nodes = `kept`, in order).
  SwGraph surviving;
  ClusteringResult clustering;  ///< over `surviving`'s node indices
  /// Cluster hosts in the ORIGINAL HW graph's id space.
  Assignment assignment;
  MappingQuality quality;
  /// Tasks removed from service, in shed order (ascending importance).
  std::vector<SheddingRecord> shed;
  /// Surplus replicas dropped because fewer HW nodes survive than the
  /// replication degree requires (the process itself stays in service).
  std::vector<SheddingRecord> dropped_replicas;
  std::vector<ProcessSurvival> processes;
  std::vector<std::string> log;
  std::size_t attempts = 0;

  /// Criticality levels (ascending, deduplicated) with every process
  /// surviving / with at least one process lost.
  [[nodiscard]] std::vector<core::Criticality> surviving_levels() const;
  [[nodiscard]] std::vector<core::Criticality> lost_levels() const;

  /// Multi-line human-readable description of the episode: surviving
  /// clusters and hosts, shed tasks, dropped replicas, per-process replica
  /// counts, quality. Deterministic — the `fcm serve` replan query and the
  /// `fcm_tool replan` command both print exactly these bytes. `failed`
  /// names the HW nodes whose loss triggered the episode.
  [[nodiscard]] std::string report(const HwGraph& hw,
                                   const std::vector<HwNodeId>& failed) const;
};

/// The platform left when the nodes marked in `dead` (one flag per HW node)
/// fail: the live nodes, renumbered densely in id order, and every link
/// between two of them.
HwGraph surviving_platform(const HwGraph& hw, const std::vector<bool>& dead);

/// Repairs `old_assignment` after the HW nodes in `failed` die. `sw` is the
/// full replication-expanded SW graph the original plan mapped;
/// `old_partition` + `old_assignment` locate each replica's host. Never
/// collocates two replicas of one process (the weight-0 anti-affinity holds
/// through ClusterEngine::can_combine on the surviving subgraph). Throws
/// InvalidArgument on malformed inputs; an unrepairable instance returns
/// `feasible == false` rather than throwing.
ReplanResult replan_after_loss(const SwGraph& sw,
                               const graph::Partition& old_partition,
                               const Assignment& old_assignment,
                               const HwGraph& hw,
                               const std::vector<HwNodeId>& failed,
                               const ReplanOptions& options = {});

}  // namespace fcm::mapping
