#include "mapping/replanner.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "common/error.h"
#include "common/table.h"
#include "obs/obs.h"

namespace fcm::mapping {

namespace {

/// Ascending (importance, node index): the §5 shed order. The index
/// tie-break makes the order total, so every run sheds identically.
struct ShedOrder {
  const SwGraph* sw;
  bool operator()(graph::NodeIndex a, graph::NodeIndex b) const {
    const double ia = sw->node(a).importance;
    const double ib = sw->node(b).importance;
    if (ia != ib) return ia < ib;
    return a < b;
  }
};

SheddingRecord record_of(const SwGraph& sw, graph::NodeIndex v) {
  const SwNode& node = sw.node(v);
  SheddingRecord record;
  record.name = node.name;
  record.importance = node.importance;
  record.criticality = node.attributes.criticality;
  return record;
}

}  // namespace

HwGraph surviving_platform(const HwGraph& hw, const std::vector<bool>& dead) {
  FCM_REQUIRE(dead.size() == hw.node_count(),
              "dead-node mask does not cover the HW graph");
  HwGraph survivors;
  std::vector<std::uint32_t> new_of_orig(hw.node_count(), UINT32_MAX);
  for (const HwNode& node : hw.nodes()) {
    if (dead[node.id.value()]) continue;
    new_of_orig[node.id.value()] =
        survivors.add_node(node.name, node.memory, node.resources).value();
  }
  for (const HwNode& node : hw.nodes()) {
    if (dead[node.id.value()]) continue;
    for (const HwLink& link : hw.links(node.id)) {
      // Each link is listed at both ends; copy it once, from the lower one.
      if (link.to < node.id.value() || dead[link.to]) continue;
      survivors.add_link(HwNodeId(new_of_orig[node.id.value()]),
                         HwNodeId(new_of_orig[link.to]), link.bandwidth);
    }
  }
  return survivors;
}

std::vector<core::Criticality> ReplanResult::surviving_levels() const {
  std::set<core::Criticality> alive, lost;
  for (const ProcessSurvival& p : processes) {
    (p.survived() ? alive : lost).insert(p.criticality);
  }
  std::vector<core::Criticality> out;
  for (const core::Criticality c : alive) {
    if (lost.count(c) == 0) out.push_back(c);
  }
  return out;
}

std::vector<core::Criticality> ReplanResult::lost_levels() const {
  std::set<core::Criticality> lost;
  for (const ProcessSurvival& p : processes) {
    if (!p.survived()) lost.insert(p.criticality);
  }
  return {lost.begin(), lost.end()};
}

std::string ReplanResult::report(
    const HwGraph& hw, const std::vector<HwNodeId>& failed) const {
  std::ostringstream out;
  out << "replan: " << (feasible ? "feasible" : "INFEASIBLE")
      << " after losing {";
  for (std::size_t i = 0; i < failed.size(); ++i) {
    if (i > 0) out << ',';
    out << hw.node(failed[i]).name;
  }
  out << "}  attempts=" << attempts << '\n';
  if (feasible) {
    const auto names = clustering.cluster_names(surviving);
    for (std::uint32_t c = 0; c < names.size(); ++c) {
      out << "  " << hw.node(assignment.hw_of[c]).name << " <- {";
      for (std::size_t i = 0; i < names[c].size(); ++i) {
        if (i > 0) out << ',';
        out << names[c][i];
      }
      out << "}\n";
    }
  }
  for (const SheddingRecord& s : dropped_replicas) {
    out << "  dropped replica: " << s.name << " of " << s.process
        << " (criticality " << s.criticality << ")\n";
  }
  for (const SheddingRecord& s : shed) {
    out << "  shed: " << s.name << " of " << s.process << " (importance "
        << fmt(s.importance) << ", criticality " << s.criticality << ")\n";
  }
  for (const ProcessSurvival& p : processes) {
    out << "  " << p.name << ": replicas " << p.replicas_before << " -> "
        << p.replicas_after << (p.survived() ? "" : "  LOST")
        << "  (criticality " << p.criticality << ")\n";
  }
  if (feasible) out << quality.report();
  return out.str();
}

ReplanResult replan_after_loss(const SwGraph& sw,
                               const graph::Partition& old_partition,
                               const Assignment& old_assignment,
                               const HwGraph& hw,
                               const std::vector<HwNodeId>& failed,
                               const ReplanOptions& options) {
  FCM_REQUIRE(old_partition.cluster_of.size() == sw.node_count(),
              "partition does not cover the SW graph");
  FCM_REQUIRE(old_assignment.hw_of.size() == old_partition.cluster_count,
              "assignment does not cover every cluster");
  FCM_REQUIRE(options.max_attempts >= 1, "at least one attempt required");
  FCM_OBS_SPAN("replan.after_loss");
  FCM_OBS_COUNT("replan.invocations", 1);

  ReplanResult result;

  // ---- The failed-node set and the surviving HW graph. ----
  std::vector<bool> dead(hw.node_count(), false);
  for (const HwNodeId id : failed) {
    FCM_REQUIRE(id.valid() && id.value() < hw.node_count(),
                "failed HW node is unknown");
    dead[id.value()] = true;
  }
  const HwGraph surviving_hw = surviving_platform(hw, dead);
  std::vector<HwNodeId> orig_of_new;
  for (const HwNode& node : hw.nodes()) {
    if (!dead[node.id.value()]) orig_of_new.push_back(node.id);
  }

  // ---- Per-process accounting. A process with a dead replica but a live
  // one is *promoted*: it stays in service at reduced redundancy — the §5
  // weight-0 separation paying off. ----
  std::vector<std::size_t> process_of(sw.node_count());
  for (const SwProcess& process : sw.processes()) {
    ProcessSurvival p;
    p.origin = process.origin;
    p.name = process.name;
    p.criticality = process.criticality;
    p.replicas_before = static_cast<int>(process.replicas.size());
    for (const graph::NodeIndex v : process.replicas) {
      process_of[v] = result.processes.size();
    }
    result.processes.push_back(std::move(p));
  }
  if (surviving_hw.node_count() == 0) {
    result.log.push_back("no HW node survives: nothing to replan onto");
    return result;
  }

  // ---- Survivors: replicas whose host processor is still alive. ----
  std::vector<graph::NodeIndex> survivors;
  for (graph::NodeIndex v = 0; v < sw.node_count(); ++v) {
    const std::uint32_t cluster = old_partition.cluster_of[v];
    const HwNodeId host = old_assignment.host(cluster);
    FCM_REQUIRE(host.valid() && host.value() < hw.node_count(),
                "old assignment references an unknown HW node");
    if (dead[host.value()]) {
      result.log.push_back("lost " + sw.node(v).name + " with " +
                           hw.node(host).name);
    } else {
      survivors.push_back(v);
    }
  }

  // ---- Capacity pre-pass: a process cannot keep more replicas than there
  // are surviving HW nodes (replicas never collocate). Drop the surplus —
  // highest replica index first — before clustering ever sees them.
  std::map<FcmId, std::vector<graph::NodeIndex>> surviving_replicas;
  for (const graph::NodeIndex v : survivors) {
    surviving_replicas[sw.node(v).origin].push_back(v);
  }
  std::set<graph::NodeIndex> dropped;
  for (auto& [origin, group] : surviving_replicas) {
    while (group.size() > surviving_hw.node_count()) {
      const graph::NodeIndex victim = group.back();
      group.pop_back();
      dropped.insert(victim);
      SheddingRecord record = record_of(sw, victim);
      record.process = result.processes[process_of[victim]].name;
      result.log.push_back("drop surplus replica " + record.name + " (" +
                           std::to_string(group.size()) +
                           " fit the surviving HW)");
      result.dropped_replicas.push_back(std::move(record));
    }
  }
  std::vector<graph::NodeIndex> candidates;
  for (const graph::NodeIndex v : survivors) {
    if (dropped.count(v) == 0) candidates.push_back(v);
  }

  // ---- Bounded retry/backoff: cluster + assign, shedding the
  // lowest-importance candidates when the instance will not fit. Shedding
  // "the batch least-important of the remaining" round after round composes
  // into "shed the first k of one global order", because ShedOrder is a
  // fixed total order over nodes — which is what makes the minimality
  // backtrack below possible. ----
  std::vector<graph::NodeIndex> order = candidates;
  std::sort(order.begin(), order.end(), ShedOrder{&sw});

  // One feasibility probe with the `shed_count` least-important candidates
  // removed. On success the repair artifacts land in `result` (hosts mapped
  // back to the original HW id space); on failure the violations land in
  // the log.
  const auto probe = [&](std::size_t shed_count, std::size_t attempt) {
    const std::set<graph::NodeIndex> to_shed(
        order.begin(),
        order.begin() + static_cast<std::ptrdiff_t>(shed_count));
    std::vector<graph::NodeIndex> kept;
    for (const graph::NodeIndex v : candidates) {
      if (to_shed.count(v) == 0) kept.push_back(v);
    }
    if (kept.empty()) {
      result.log.push_back("attempt " + std::to_string(attempt) +
                           ": no candidates remain");
      return false;
    }
    SwGraph sub = sw.subset(kept);
    ClusteringOptions copt;
    copt.target_clusters =
        std::min<std::size_t>(kept.size(), surviving_hw.node_count());
    copt.policy = options.policy;
    copt.resource_check = [&surviving_hw](const std::set<std::string>& need) {
      for (const HwNode& node : surviving_hw.nodes()) {
        if (std::includes(node.resources.begin(), node.resources.end(),
                          need.begin(), need.end())) {
          return true;
        }
      }
      return false;
    };
    try {
      ClusterEngine engine(sub, copt);
      ClusteringResult clustering = engine.h1_greedy();
      Assignment assignment = assign_by_importance(sub, clustering,
                                                   surviving_hw);
      QualityOptions qopt = options.quality;
      qopt.policy = options.policy;
      qopt.critical_threshold = options.critical_threshold;
      MappingQuality quality =
          evaluate(sub, clustering, assignment, surviving_hw, qopt);
      if (!quality.constraints_satisfied()) {
        for (const std::string& violation : quality.violations) {
          result.log.push_back("attempt " + std::to_string(attempt) +
                               " violation: " + violation);
        }
        return false;
      }
      result.feasible = true;
      result.kept = kept;
      result.clustering = std::move(clustering);
      result.quality = std::move(quality);
      // Report hosts in the original HW id space.
      for (HwNodeId& host : assignment.hw_of) {
        host = orig_of_new[host.value()];
      }
      result.assignment = std::move(assignment);
      result.surviving = std::move(sub);
      result.log.push_back(
          "attempt " + std::to_string(attempt) + ": repaired onto " +
          std::to_string(surviving_hw.node_count()) + " HW nodes, " +
          std::to_string(kept.size()) + " tasks in service");
      return true;
    } catch (const FcmError& error) {
      result.log.push_back("attempt " + std::to_string(attempt) +
                           " failed: " + error.what());
      return false;
    }
  };

  // Doubling-batch escalation: probe shed counts 0, 1, 3, 7, 15, ... —
  // the backoff that keeps deeply infeasible instances O(log n) attempts.
  std::size_t shed_count = 0;
  std::size_t batch = 1;
  std::size_t last_failed = 0;
  bool saw_failure = false;
  std::size_t feasible_shed = 0;
  while (result.attempts < options.max_attempts) {
    ++result.attempts;
    if (probe(shed_count, result.attempts)) {
      feasible_shed = shed_count;
      break;
    }
    if (shed_count >= order.size()) break;  // everything shed; give up
    last_failed = shed_count;
    saw_failure = true;
    shed_count = std::min(order.size(), shed_count + batch);
    batch *= 2;
  }

  // ---- Minimality backtrack: the doubling batch can overshoot the
  // feasibility boundary by up to ~2x, shedding tasks that would have fit.
  // Binary-search the smallest feasible shed prefix in
  // (last_failed, feasible_shed]; `result` always holds the artifacts of
  // the current upper end, because only successful probes rewrite it and
  // the upper end only moves onto them. ----
  if (result.feasible && saw_failure && feasible_shed > last_failed + 1) {
    std::size_t lo = last_failed;    // known infeasible
    std::size_t hi = feasible_shed;  // known feasible
    while (hi - lo > 1 && result.attempts < options.max_attempts) {
      ++result.attempts;
      const std::size_t mid = lo + (hi - lo) / 2;
      if (probe(mid, result.attempts)) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
    feasible_shed = hi;
  }

  // Record what was actually shed: the minimal feasible prefix, or — when
  // every escalation failed — the deepest prefix the escalation reached.
  const std::size_t recorded_shed = result.feasible ? feasible_shed
                                                    : shed_count;
  for (std::size_t i = 0; i < recorded_shed; ++i) {
    const graph::NodeIndex v = order[i];
    SheddingRecord record = record_of(sw, v);
    record.process = result.processes[process_of[v]].name;
    result.log.push_back("shed " + record.name + " (importance " +
                         std::to_string(record.importance) + ")");
    result.shed.push_back(std::move(record));
  }

  // ---- Post-replan process fates. ----
  if (result.feasible) {
    for (const graph::NodeIndex v : result.kept) {
      ++result.processes[process_of[v]].replicas_after;
    }
  }
  FCM_OBS_COUNT("replan.attempts", result.attempts);
  FCM_OBS_COUNT("replan.shed_tasks", result.shed.size());
  FCM_OBS_COUNT("replan.dropped_replicas", result.dropped_replicas.size());
  FCM_OBS_COUNT(result.feasible ? "replan.repaired" : "replan.unrepaired", 1);
  return result;
}

}  // namespace fcm::mapping
