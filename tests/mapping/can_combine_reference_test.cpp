// Differential test for ClusterEngine::can_combine. The engine checks a
// candidate union in O(|A| + |B|): per-origin stamps for the replica test
// and per-node cached jobs for the schedulability oracle. The reference
// below is the check as first written — a scan of cluster_of for both
// member lists, replicas() tested pair by pair, the resource union, and
// every member's job rebuilt on each call. On random partitions of random
// SW graphs both must agree on every verdict and pass the resource check
// the same sets in the same order.
#include "mapping/clustering.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sched/feasibility.h"

namespace fcm::mapping {
namespace {

class ReferenceCombiner {
 public:
  ReferenceCombiner(const SwGraph& sw, const ClusteringOptions& options)
      : sw_(&sw), options_(options) {}

  bool can_combine(const graph::Partition& partition, std::uint32_t cluster_a,
                   std::uint32_t cluster_b) {
    if (cluster_a == cluster_b) return false;
    std::vector<graph::NodeIndex> a_members, b_members;
    for (std::size_t v = 0; v < partition.cluster_of.size(); ++v) {
      if (partition.cluster_of[v] == cluster_a) {
        a_members.push_back(static_cast<graph::NodeIndex>(v));
      } else if (partition.cluster_of[v] == cluster_b) {
        b_members.push_back(static_cast<graph::NodeIndex>(v));
      }
    }
    for (const graph::NodeIndex a : a_members) {
      for (const graph::NodeIndex b : b_members) {
        if (sw_->replicas(a, b)) return false;
      }
    }
    std::vector<graph::NodeIndex> all = a_members;
    all.insert(all.end(), b_members.begin(), b_members.end());
    if (options_.resource_check) {
      std::set<std::string> combined;
      for (const graph::NodeIndex v : all) {
        const auto& req = sw_->node(v).attributes.required_resources;
        combined.insert(req.begin(), req.end());
      }
      if (!combined.empty() && !options_.resource_check(combined)) {
        return false;
      }
    }
    if (!options_.enforce_schedulability) return true;
    std::vector<sched::Job> jobs;
    std::vector<sched::PeriodicTask> periodic;
    for (const graph::NodeIndex v : all) {
      const SwNode& node = sw_->node(v);
      if (!node.attributes.timing.has_value()) continue;
      const core::TimingSpec& timing = *node.attributes.timing;
      if (timing.is_periodic()) {
        periodic.push_back(timing.to_periodic_task(node.name));
      } else {
        jobs.push_back(timing.to_job(JobId(v), node.name));
      }
    }
    if (periodic.empty()) return sched::feasible(options_.policy, jobs);
    return sched::mixed_feasible(jobs, periodic);
  }

 private:
  const SwGraph* sw_;
  ClusteringOptions options_;
};

struct RandomSystem {
  core::FcmHierarchy hierarchy;
  core::InfluenceModel influence;
  std::vector<FcmId> processes;
};

// Processes with replication 1-3, a mix of one-shot, periodic and untimed
// activities, and occasional resource requirements.
RandomSystem random_system(Rng& rng) {
  static const std::vector<std::string> kResources{"gps", "radio", "fpu"};
  RandomSystem sys;
  const std::size_t n = 4 + rng.below(9);
  for (std::size_t i = 0; i < n; ++i) {
    core::Attributes attrs;
    attrs.criticality = static_cast<core::Criticality>(rng.range(1, 10));
    attrs.replication = static_cast<int>(rng.range(1, 3));
    switch (rng.below(3)) {
      case 0: {
        const std::int64_t est = rng.range(0, 20);
        const std::int64_t ct = rng.range(1, 8);
        attrs.timing = core::TimingSpec::one_shot(
            Instant::epoch() + Duration::millis(est),
            Instant::epoch() + Duration::millis(est + ct + rng.range(0, 30)),
            Duration::millis(ct));
        break;
      }
      case 1: {
        const std::int64_t period = std::int64_t{10} << rng.below(3);
        const std::int64_t ct = rng.range(1, 4);
        attrs.timing = core::TimingSpec::periodic(
            Instant::epoch(),
            Instant::epoch() + Duration::millis(rng.range(ct, period)),
            Duration::millis(ct), Duration::millis(period));
        break;
      }
      default:
        break;  // untimed
    }
    for (const std::string& resource : kResources) {
      if (rng.uniform() < 0.2) attrs.required_resources.insert(resource);
    }
    const FcmId id = sys.hierarchy.create("p" + std::to_string(i + 1),
                                          core::Level::kProcess, attrs);
    sys.influence.add_member(id, sys.hierarchy.get(id).name);
    sys.processes.push_back(id);
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && rng.uniform() < 0.3) {
        sys.influence.set_direct(sys.processes[i], sys.processes[j],
                                 Probability(rng.uniform(0.05, 0.8)));
      }
    }
  }
  return sys;
}

// Monotone: a set that no host covers is never covered once it grows.
bool hostable(const std::set<std::string>& required) {
  static const std::vector<std::set<std::string>> kHosts{
      {"gps", "radio"}, {"fpu"}, {"gps", "fpu"}};
  return std::any_of(kHosts.begin(), kHosts.end(),
                     [&](const std::set<std::string>& host) {
                       return std::includes(host.begin(), host.end(),
                                            required.begin(), required.end());
                     });
}

// Every cluster pair of a few random partitions, engine vs reference.
void expect_same_verdicts(std::uint64_t seed, bool schedulability,
                          bool resources, sched::Policy policy) {
  Rng rng(seed);
  const RandomSystem sys = random_system(rng);
  const SwGraph sw =
      SwGraph::build(sys.hierarchy, sys.influence, sys.processes);

  std::vector<std::set<std::string>> engine_queries, reference_queries;
  ClusteringOptions engine_options;
  engine_options.target_clusters = 3;  // the highest replication degree
  engine_options.enforce_schedulability = schedulability;
  engine_options.policy = policy;
  ClusteringOptions reference_options = engine_options;
  if (resources) {
    engine_options.resource_check = [&](const std::set<std::string>& s) {
      engine_queries.push_back(s);
      return hostable(s);
    };
    reference_options.resource_check = [&](const std::set<std::string>& s) {
      reference_queries.push_back(s);
      return hostable(s);
    };
  }
  ClusterEngine engine(sw, engine_options);
  ReferenceCombiner reference(sw, reference_options);

  int accepted = 0, refused = 0;
  for (int round = 0; round < 4; ++round) {
    graph::Partition partition = graph::Partition::identity(sw.node_count());
    const std::size_t merges = rng.below(
        static_cast<std::uint32_t>(sw.node_count()));
    for (std::size_t k = 0; k < merges && partition.cluster_count > 1; ++k) {
      partition.merge(rng.below(static_cast<std::uint32_t>(sw.node_count())),
                      rng.below(static_cast<std::uint32_t>(sw.node_count())));
    }
    for (std::uint32_t a = 0; a < partition.cluster_count; ++a) {
      for (std::uint32_t b = 0; b < partition.cluster_count; ++b) {
        const bool expected = reference.can_combine(partition, a, b);
        ASSERT_EQ(engine.can_combine(partition, a, b), expected)
            << "seed " << seed << " round " << round << " clusters (" << a
            << ", " << b << ")";
        ++(expected ? accepted : refused);
      }
    }
  }
  EXPECT_EQ(engine_queries, reference_queries) << "seed " << seed;
  EXPECT_GT(accepted, 0) << "seed " << seed;
  EXPECT_GT(refused, 0) << "seed " << seed;
}

TEST(CanCombineReference, MatchesOnRandomPartitions) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    expect_same_verdicts(seed, /*schedulability=*/true, /*resources=*/true,
                         sched::Policy::kPreemptiveEdf);
  }
}

TEST(CanCombineReference, MatchesUnderTheNonPreemptiveOracle) {
  for (std::uint64_t seed = 41; seed <= 60; ++seed) {
    expect_same_verdicts(seed, /*schedulability=*/true, /*resources=*/true,
                         sched::Policy::kNonPreemptiveEdf);
  }
}

TEST(CanCombineReference, MatchesWithoutTheOptionalChecks) {
  for (std::uint64_t seed = 61; seed <= 80; ++seed) {
    expect_same_verdicts(seed, /*schedulability=*/false, /*resources=*/false,
                         sched::Policy::kPreemptiveEdf);
  }
}

}  // namespace
}  // namespace fcm::mapping
