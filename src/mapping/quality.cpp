#include "mapping/quality.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.h"
#include "core/separation.h"

namespace fcm::mapping {

double MappingQuality::score(const QualityWeights& weights) const {
  if (!constraints_satisfied()) return 0.0;
  const double containment =
      total_influence > 0.0
          ? 1.0 - std::min(1.0, cross_node_influence / total_influence)
          : 1.0;
  // Criticality dispersion: best case is criticality spread evenly; we use
  // 1/(1 + colocated critical pairs) so each colocated pair hurts.
  const double dispersion =
      1.0 / (1.0 + static_cast<double>(critical_pairs_colocated));
  const double dilation_score =
      total_influence > 0.0
          ? 1.0 - std::min(1.0, dilation / (2.0 * total_influence))
          : 1.0;
  const double total =
      weights.containment + weights.criticality + weights.dilation;
  return (weights.containment * containment +
          weights.criticality * dispersion +
          weights.dilation * dilation_score) /
         (total > 0.0 ? total : 1.0);
}

std::string MappingQuality::report() const {
  std::ostringstream out;
  out << "constraints: "
      << (constraints_satisfied() ? "satisfied" : "VIOLATED") << '\n';
  for (const std::string& v : violations) out << "  ! " << v << '\n';
  out << "cross-node influence: " << cross_node_influence << " (of "
      << total_influence << " total)\n";
  out << "min separation: " << min_separation.value() << '\n';
  out << "max colocated criticality: " << max_colocated_criticality << '\n';
  out << "critical pairs colocated: " << critical_pairs_colocated << '\n';
  out << "dilation: " << dilation << '\n';
  out << "score: " << score() << '\n';
  return out.str();
}

MappingQuality evaluate(const SwGraph& sw, const ClusteringResult& clustering,
                        const Assignment& assignment, const HwGraph& hw,
                        const QualityOptions& options) {
  const graph::Partition& partition = clustering.partition;
  FCM_REQUIRE(assignment.hw_of.size() == partition.cluster_count,
              "assignment does not cover every cluster");

  MappingQuality q;
  const auto groups = partition.groups();

  // Replica anti-affinity.
  q.replica_separation_ok = true;
  for (const auto& members : groups) {
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (std::size_t j = i + 1; j < members.size(); ++j) {
        if (sw.replicas(members[i], members[j])) {
          q.replica_separation_ok = false;
          q.violations.push_back("replicas " + sw.node(members[i]).name +
                                 " and " + sw.node(members[j]).name +
                                 " share a HW node");
        }
      }
    }
  }

  // Schedulability per cluster (one-shot jobs under the policy, mixed
  // workloads with periodic members through mixed_feasible).
  q.schedulable_ok = true;
  for (std::uint32_t c = 0; c < groups.size(); ++c) {
    std::vector<sched::Job> jobs;
    std::vector<sched::PeriodicTask> periodic;
    for (const graph::NodeIndex v : groups[c]) {
      const SwNode& node = sw.node(v);
      if (!node.attributes.timing.has_value()) continue;
      if (node.attributes.timing->is_periodic()) {
        periodic.push_back(node.attributes.timing->to_periodic_task(node.name));
      } else {
        jobs.push_back(sw.job_of(v));
      }
    }
    const bool ok = periodic.empty()
                        ? sched::feasible(options.policy, jobs)
                        : sched::mixed_feasible(jobs, periodic);
    if (!ok) {
      q.schedulable_ok = false;
      q.violations.push_back("cluster {" + clustering.quotient.name(c) +
                             "} is not schedulable under " +
                             sched::to_string(options.policy));
    }
  }

  // Resource requirements.
  q.resources_ok = true;
  for (std::uint32_t c = 0; c < groups.size(); ++c) {
    const HwNode& host = hw.node(assignment.hw_of[c]);
    for (const graph::NodeIndex v : groups[c]) {
      for (const std::string& resource :
           sw.node(v).attributes.required_resources) {
        if (!host.resources.contains(resource)) {
          q.resources_ok = false;
          q.violations.push_back(sw.node(v).name + " requires resource '" +
                                 resource + "' absent from " + host.name);
        }
      }
    }
  }

  // Containment: influence crossing HW nodes, and the total influence of
  // the original SW graph (replica links are weight 0 and don't count).
  q.cross_node_influence = clustering.quotient.total_weight();
  q.total_influence = sw.influence_graph().total_weight();

  // Separation between clusters (Eq. 3 on the quotient influence matrix).
  if (partition.cluster_count >= 2) {
    graph::Matrix p(partition.cluster_count);
    for (const graph::Edge& e : clustering.quotient.edges()) {
      p.at(e.from, e.to) = e.weight;
    }
    if (options.separation_cache != nullptr) {
      q.min_separation = options.separation_cache->get(p).min_separation();
    } else {
      const core::SeparationAnalysis separation{p};
      q.min_separation = separation.min_separation();
    }
  } else {
    q.min_separation = Probability::one();
  }

  // Criticality dispersion.
  for (const auto& members : groups) {
    double colocated = 0.0;
    int critical_count = 0;
    for (const graph::NodeIndex v : members) {
      colocated += sw.node(v).attributes.criticality;
      if (sw.node(v).attributes.criticality >= options.critical_threshold) {
        ++critical_count;
      }
    }
    q.max_colocated_criticality =
        std::max(q.max_colocated_criticality, colocated);
    q.critical_pairs_colocated += critical_count * (critical_count - 1) / 2;
  }

  // Dilation: influence weight x hop distance between host nodes.
  const HopTable hops(hw);
  for (const graph::Edge& e : clustering.quotient.edges()) {
    q.dilation +=
        e.weight * hops(assignment.hw_of[e.from], assignment.hw_of[e.to]);
  }
  return q;
}

}  // namespace fcm::mapping
