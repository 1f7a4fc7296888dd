// End-to-end integration planning.
//
// The paper's §5 realization is "a two-phase technique: first, clustering of
// SW elements into FCMs; second, assigning these elements to processors".
// `IntegrationPlanner` drives the whole pipeline — SW graph construction
// with replication expansion, a chosen clustering heuristic, a chosen
// assignment approach, and quality evaluation — and can compare heuristics
// to pick the best-scoring feasible plan.
#pragma once

#include <string>
#include <vector>

#include "core/hierarchy.h"
#include "core/influence.h"
#include "mapping/assignment.h"
#include "mapping/clustering.h"
#include "mapping/quality.h"

namespace fcm::mapping {

/// Clustering heuristic selector. kH1Hierarchical is the scale variant of
/// H1 (partition, cluster within parts in parallel, merge across); it is
/// selectable explicitly but excluded from the best_plan sweep, which
/// targets paper-sized systems where flat H1 subsumes it.
enum class Heuristic : std::uint8_t {
  kH1Greedy,
  kH1Rounds,
  kH2MinCut,
  kH2StCut,
  kH3Importance,
  kCriticalityPairing,
  kTimingOrdered,
  kH1Hierarchical,
};

const char* to_string(Heuristic heuristic) noexcept;

/// Assignment approach selector.
enum class Approach : std::uint8_t {
  kAImportance,     ///< Approach A: importance of tasks
  kBLexicographic,  ///< Approach B: importance of attributes
};

const char* to_string(Approach approach) noexcept;

/// One complete plan.
struct Plan {
  Heuristic heuristic = Heuristic::kH1Greedy;
  Approach approach = Approach::kAImportance;
  ClusteringResult clustering;
  Assignment assignment;
  MappingQuality quality;

  /// Multi-line description: clusters, hosts, quality report.
  [[nodiscard]] std::string report(const SwGraph& sw,
                                   const HwGraph& hw) const;
};

/// Options for planning.
struct PlanOptions {
  sched::Policy policy = sched::Policy::kPreemptiveEdf;
  QualityOptions quality;
  /// Worker threads for the best_plan heuristic sweep (0 = hardware
  /// concurrency, 1 = sequential). Candidates are independent, and the
  /// winner is always selected in the fixed heuristic order with a
  /// strictly-greater score rule, so the chosen plan is identical for
  /// every thread count.
  std::uint32_t sweep_threads = 1;
  /// Worker threads for the per-part runs of kH1Hierarchical
  /// (0 = FCM_THREADS / hardware concurrency). Plans are bitwise identical
  /// for every value.
  std::uint32_t cluster_threads = 0;
  /// Must stay true; copied into ClusteringOptions::incremental_quotient
  /// (see there).
  bool incremental_quotient = true;
  /// Part count for kH1Hierarchical (0 = auto).
  std::size_t hierarchy_parts = 0;
};

/// Plans the integration of `processes` onto `hw`.
class IntegrationPlanner {
 public:
  IntegrationPlanner(const core::FcmHierarchy& hierarchy,
                     const core::InfluenceModel& influence,
                     std::vector<FcmId> processes, const HwGraph& hw,
                     PlanOptions options = {});

  /// The replication-expanded SW graph.
  [[nodiscard]] const SwGraph& sw_graph() const noexcept { return sw_; }

  /// Runs one heuristic + approach combination. Side-effect free, so
  /// candidates may run concurrently.
  Plan plan(Heuristic heuristic, Approach approach) const;

  /// Runs every heuristic with the given approach and returns the feasible
  /// plan with the highest quality score. The candidates run as blocks of
  /// one executor region on up to `sweep_threads` lanes; the selection pass
  /// is always sequential over the fixed heuristic order, so the result is
  /// identical for any thread count. Throws Infeasible when no heuristic
  /// produces a feasible plan.
  Plan best_plan(Approach approach = Approach::kAImportance) const;

 private:
  const HwGraph* hw_;
  PlanOptions options_;
  SwGraph sw_;
};

}  // namespace fcm::mapping
