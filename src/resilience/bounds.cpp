#include "resilience/bounds.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "common/error.h"

namespace fcm::resilience {

namespace {

// Folds per-process bounds into the joint figures. Upper: the joint event
// is contained in each marginal, so the series min is an upper bound.
// Lower: under the worst-case coupling every remaining random draw is an
// independent per-replica recovery (or ancestor-ok) event over disjoint
// replica sets, so the joint probability factorizes into the product.
void fold_joint(const std::vector<mapping::SwProcess>& processes,
                core::Criticality critical_threshold,
                CompositionalBounds& out) {
  out.system = {1.0, 1.0};
  out.critical = {1.0, 1.0};
  for (std::size_t p = 0; p < processes.size(); ++p) {
    const SurvivalBounds& b = out.processes[p].survival;
    out.system.lower *= b.lower;
    out.system.upper = std::min(out.system.upper, b.upper);
    if (processes[p].criticality >= critical_threshold) {
      out.critical.lower *= b.lower;
      out.critical.upper = std::min(out.critical.upper, b.upper);
    }
  }
}

// Positive-edge descendants of `sources` (inclusive): every replica a fault
// starting at a source could conceivably reach. Weight-0 replica links
// carry no dataflow and do not propagate.
std::vector<bool> reachable_closure(const mapping::SwGraph& sw,
                                    std::vector<bool> affected) {
  const auto& edges = sw.influence_graph().edges();
  bool changed = true;
  while (changed) {
    changed = false;
    for (const graph::Edge& edge : edges) {
      if (edge.weight <= 0.0) continue;
      if (affected[edge.from] && !affected[edge.to]) {
        affected[edge.to] = true;
        changed = true;
      }
    }
  }
  return affected;
}

}  // namespace

double recovery_success(int replication, Probability failure) {
  const double p = failure.value();
  if (replication >= 3) {
    // Majority-voted N-version: >= floor(r/2)+1 of r versions succeed.
    const int r = replication;
    const int need = r / 2 + 1;
    double total = 0.0;
    for (int ok = need; ok <= r; ++ok) {
      double coefficient = 1.0;
      for (int i = 0; i < ok; ++i) {
        coefficient *= static_cast<double>(r - i) / static_cast<double>(i + 1);
      }
      total += coefficient * std::pow(1.0 - p, ok) * std::pow(p, r - ok);
    }
    return total;
  }
  if (replication == 2) return 1.0 - p * p;  // primary alternate, then backup
  return 1.0 - p;  // simplex rollback + one restart
}

double delivery_probability(const std::vector<double>& replica_ok,
                            int replication) {
  FCM_REQUIRE(!replica_ok.empty(), "delivery fold needs >= 1 replica");
  const int n = static_cast<int>(replica_ok.size());
  const int need = mapping::min_ok_replicas(replication, replica_ok.size());
  // Convolve the heterogeneous Bernoulli replicas into the ok-count
  // distribution, then sum the tail at `need`.
  std::vector<double> dist(static_cast<std::size_t>(n) + 1, 0.0);
  dist[0] = 1.0;
  for (int i = 0; i < n; ++i) {
    const double ok = std::clamp(replica_ok[static_cast<std::size_t>(i)],
                                 0.0, 1.0);
    for (int j = i + 1; j >= 1; --j) {
      dist[static_cast<std::size_t>(j)] =
          dist[static_cast<std::size_t>(j)] * (1.0 - ok) +
          dist[static_cast<std::size_t>(j) - 1] * ok;
    }
    dist[0] *= 1.0 - ok;
  }
  double tail = 0.0;
  for (int j = need; j <= n; ++j) tail += dist[static_cast<std::size_t>(j)];
  return std::clamp(tail, 0.0, 1.0);
}

double binomial_halfwidth(double p_hat, std::uint64_t n, double z) {
  if (n == 0) return 1.0;
  const double p = std::clamp(p_hat, 0.0, 1.0);
  const double nd = static_cast<double>(n);
  return z * std::sqrt(p * (1.0 - p) / nd) + 0.5 / nd;
}

CompositionalBounds scenario_bounds(const mapping::SwGraph& sw,
                                    const graph::Partition& partition,
                                    const mapping::Assignment& assignment,
                                    const mapping::HwGraph& hw,
                                    const Scenario& scenario,
                                    const ScenarioBoundOptions& options) {
  const std::vector<mapping::SwProcess> processes = sw.processes();
  const CompiledPlatform compiled =
      compile_platform(sw, partition, assignment, hw);

  // Crashed hosts kill their replicas for the whole trial (the campaign
  // charges a crashed host's replicas as failed regardless of crash time).
  std::set<std::uint32_t> crashed;
  for (const ScenarioEvent& event : scenario.events) {
    if (event.kind != ScenarioEventKind::kProcessorCrash) continue;
    FCM_REQUIRE(event.hw_node.valid() && event.hw_node.value() < hw.node_count(),
                "scenario crashes an unknown HW node");
    crashed.insert(event.hw_node.value());
  }
  std::vector<bool> host_crashed(sw.node_count(), false);
  for (graph::NodeIndex v = 0; v < sw.node_count(); ++v) {
    const HwNodeId host = assignment.host(partition.cluster_of[v]);
    host_crashed[v] = crashed.count(host.value()) != 0;
  }

  // Per-processor load, for the manifestation-certainty argument below.
  std::vector<Duration> cpu_cost(hw.node_count(), Duration::zero());
  std::vector<Duration> cpu_min_period(hw.node_count(),
                                       Duration::millis(1'000'000));
  for (const sim::TaskSpec& task : compiled.spec.tasks) {
    const std::size_t cpu = task.processor.value();
    cpu_cost[cpu] += task.cost;
    cpu_min_period[cpu] = std::min(cpu_min_period[cpu], task.period);
  }

  // A processor is overload-free when its per-period demand fits the
  // shortest period: demand in any window of that length is at most the
  // summed cost, so every work-conserving policy clears the backlog and no
  // deadline (== period) is ever missed. Above that threshold the backlog
  // can grow without bound and deadline misses — which the campaign counts
  // as failures with a recovery lottery, fault or no fault — become a
  // baseline failure source on every task the processor runs.
  std::vector<bool> overloaded(hw.node_count(), false);
  for (std::size_t cpu = 0; cpu < hw.node_count(); ++cpu) {
    overloaded[cpu] = cpu_cost[cpu] > cpu_min_period[cpu];
  }

  // Upper bound: a live replica is certainly killed (then recovered with
  // its exact ftmech lottery) only when an injected fault provably
  // manifests inside the horizon: first faulty release + two full periods
  // fit before the horizon on a processor whose work-conserving schedule
  // cannot defer it past that (total cost per period <= the period).
  // Everything weaker — corruption reads, propagation, late bursts — is a
  // removable failure source, so the replica scores 1.0 in the upper fold.
  std::vector<bool> certainly_hit(sw.node_count(), false);
  // Lower bound: the worst case corrupts every replica a fault could
  // conceivably reach — injection targets and corruption readers, closed
  // transitively over positive influence edges — plus every replica whose
  // processor is overloaded (deadline misses can hit it in any trial).
  std::vector<bool> possibly_hit(sw.node_count(), false);
  const auto& edges = sw.influence_graph().edges();
  for (const ScenarioEvent& event : scenario.events) {
    switch (event.kind) {
      case ScenarioEventKind::kProcessorCrash:
        break;
      case ScenarioEventKind::kTaskFaultBurst:
      case ScenarioEventKind::kBabblingTask: {
        FCM_REQUIRE(event.task < sw.node_count(),
                    "scenario targets an unknown task");
        const graph::NodeIndex v = event.task;
        possibly_hit[v] = true;
        if (host_crashed[v]) break;
        const sim::TaskSpec& task = compiled.spec.tasks[v];
        const std::size_t cpu = task.processor.value();
        const Duration release =
            task.offset + task.period * event.activation;
        const bool burst_alive =
            event.kind == ScenarioEventKind::kBabblingTask || event.burst >= 1;
        if (burst_alive && cpu_cost[cpu] <= cpu_min_period[cpu] &&
            release + task.period * 2 <= options.horizon) {
          certainly_hit[v] = true;
        }
        break;
      }
      case ScenarioEventKind::kRegionCorruption: {
        FCM_REQUIRE(event.edge < edges.size(),
                    "scenario corrupts an unknown edge");
        FCM_REQUIRE(compiled.region_of_edge[event.edge].valid(),
                    "scenario corrupts a weight-0 replica link");
        possibly_hit[edges[event.edge].to] = true;
        break;
      }
    }
  }
  possibly_hit = reachable_closure(sw, std::move(possibly_hit));
  for (graph::NodeIndex v = 0; v < sw.node_count(); ++v) {
    const std::size_t cpu = compiled.spec.tasks[v].processor.value();
    if (overloaded[cpu]) possibly_hit[v] = true;
  }

  CompositionalBounds out;
  out.processes.resize(processes.size());
  for (std::size_t p = 0; p < processes.size(); ++p) {
    const mapping::SwProcess& info = processes[p];
    const double mech = recovery_success(info.replication,
                                         options.recovery_failure);
    std::vector<double> upper_ok, lower_ok;
    for (const graph::NodeIndex v : info.replicas) {
      if (host_crashed[v]) {
        upper_ok.push_back(0.0);
        lower_ok.push_back(0.0);
      } else {
        upper_ok.push_back(certainly_hit[v] ? mech : 1.0);
        lower_ok.push_back(possibly_hit[v] ? mech : 1.0);
      }
    }
    ProcessBound& bound = out.processes[p];
    bound.name = info.name;
    bound.criticality = info.criticality;
    bound.replication = info.replication;
    bound.survival.upper = delivery_probability(upper_ok, info.replication);
    bound.survival.lower = delivery_probability(lower_ok, info.replication);
  }
  fold_joint(processes, options.critical_threshold, out);
  return out;
}

CompositionalBounds mission_bounds(const mapping::SwGraph& sw,
                                   const graph::Partition& partition,
                                   const mapping::Assignment& assignment,
                                   const MissionBoundOptions& options) {
  FCM_REQUIRE(partition.cluster_of.size() == sw.node_count(),
              "partition does not cover the SW graph");
  const std::vector<mapping::SwProcess> processes = sw.processes();
  const double q = options.hw_failure.value();
  const double s = options.sw_fault.value();

  std::vector<std::uint32_t> host_of(sw.node_count());
  for (graph::NodeIndex v = 0; v < sw.node_count(); ++v) {
    host_of[v] = assignment.host(partition.cluster_of[v]).value();
  }

  // Positive-edge ancestors per replica, for the lower bound: a replica is
  // certainly ok when its own host and coin — and every ancestor's — hold.
  const auto& edges = sw.influence_graph().edges();
  std::vector<std::set<graph::NodeIndex>> ancestors(sw.node_count());
  for (graph::NodeIndex v = 0; v < sw.node_count(); ++v) ancestors[v] = {v};
  bool changed = true;
  while (changed) {
    changed = false;
    for (const graph::Edge& edge : edges) {
      if (edge.weight <= 0.0) continue;
      for (const graph::NodeIndex a : ancestors[edge.from]) {
        if (ancestors[edge.to].insert(a).second) changed = true;
      }
    }
  }

  const auto all_ok_probability =
      [&](const std::set<graph::NodeIndex>& members) {
        std::set<std::uint32_t> hosts;
        for (const graph::NodeIndex v : members) hosts.insert(host_of[v]);
        return std::pow(1.0 - q, static_cast<double>(hosts.size())) *
               std::pow(1.0 - s, static_cast<double>(members.size()));
      };

  CompositionalBounds out;
  out.processes.resize(processes.size());
  std::set<graph::NodeIndex> critical_closure, system_closure;
  for (std::size_t p = 0; p < processes.size(); ++p) {
    const mapping::SwProcess& info = processes[p];
    // Upper: exact no-propagation delivery. Replicas sharing a host rise
    // and fall with one host coin, so convolve per *host*: host up with
    // probability 1-q contributes Binomial(replicas there, 1-s) ok coins.
    std::map<std::uint32_t, int> on_host;
    for (const graph::NodeIndex v : info.replicas) ++on_host[host_of[v]];
    const int n = static_cast<int>(info.replicas.size());
    const int need =
        mapping::min_ok_replicas(info.replication, info.replicas.size());
    std::vector<double> dist(static_cast<std::size_t>(n) + 1, 0.0);
    dist[0] = 1.0;
    for (const auto& [host, count] : on_host) {
      std::vector<double> host_dist(static_cast<std::size_t>(count) + 1, 0.0);
      host_dist[0] = q;  // host down: zero ok replicas from it
      for (int j = 0; j <= count; ++j) {
        double coefficient = 1.0;
        for (int i = 0; i < j; ++i) {
          coefficient *=
              static_cast<double>(count - i) / static_cast<double>(i + 1);
        }
        host_dist[static_cast<std::size_t>(j)] +=
            (1.0 - q) * coefficient * std::pow(1.0 - s, j) *
            std::pow(s, count - j);
      }
      std::vector<double> next(dist.size(), 0.0);
      for (std::size_t a = 0; a < dist.size(); ++a) {
        if (dist[a] == 0.0) continue;
        for (std::size_t b = 0; b < host_dist.size() && a + b < next.size();
             ++b) {
          next[a + b] += dist[a] * host_dist[b];
        }
      }
      dist = std::move(next);
    }
    double upper = 0.0;
    for (int j = need; j <= n; ++j) upper += dist[static_cast<std::size_t>(j)];

    // Lower: every ancestor of every replica fault-free.
    std::set<graph::NodeIndex> closure;
    for (const graph::NodeIndex v : info.replicas) {
      closure.insert(ancestors[v].begin(), ancestors[v].end());
    }
    ProcessBound& bound = out.processes[p];
    bound.name = info.name;
    bound.criticality = info.criticality;
    bound.replication = info.replication;
    bound.survival.upper = std::clamp(upper, 0.0, 1.0);
    bound.survival.lower = all_ok_probability(closure);

    system_closure.insert(closure.begin(), closure.end());
    if (info.criticality >= options.critical_threshold) {
      critical_closure.insert(closure.begin(), closure.end());
    }
  }

  // Joint upper = series min; joint lower over one shared closure (tighter
  // than the per-process product, because the member closures overlap).
  out.system = {all_ok_probability(system_closure), 1.0};
  out.critical = {critical_closure.empty()
                      ? 1.0
                      : all_ok_probability(critical_closure),
                  1.0};
  for (std::size_t p = 0; p < processes.size(); ++p) {
    const SurvivalBounds& b = out.processes[p].survival;
    out.system.upper = std::min(out.system.upper, b.upper);
    if (processes[p].criticality >= options.critical_threshold) {
      out.critical.upper = std::min(out.critical.upper, b.upper);
    }
  }
  return out;
}

}  // namespace fcm::resilience
