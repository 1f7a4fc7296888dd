#include "mapping/clustering.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <map>
#include <sstream>
#include <unordered_map>

#include "common/error.h"
#include "core/importance.h"
#include "exec/executor.h"
#include "graph/maxflow.h"
#include "graph/mincut.h"
#include "obs/obs.h"

namespace fcm::mapping {

namespace {

constexpr graph::NodeIndex kNoNode = ~graph::NodeIndex{0};

std::string join_names(const SwGraph& sw,
                       const std::vector<graph::NodeIndex>& members) {
  std::string out;
  for (const graph::NodeIndex m : members) {
    if (!out.empty()) out += ',';
    out += sw.node(m).name;
  }
  return out;
}

/// The dense partition in which node v's cluster is represented by
/// `rep_of[v]`, the cluster's smallest member. Cluster indices ascend with
/// representatives — the numbering any sequence of Partition::merge calls
/// from the identity produces — so composing a partition this way equals
/// merging it together member by member.
graph::Partition partition_from_reps(
    const std::vector<graph::NodeIndex>& rep_of) {
  graph::Partition partition;
  partition.cluster_of.resize(rep_of.size());
  for (std::size_t v = 0; v < rep_of.size(); ++v) {
    partition.cluster_of[v] = rep_of[v] == v
                                  ? partition.cluster_count++
                                  : partition.cluster_of[rep_of[v]];
  }
  return partition;
}

/// partition_from_reps over explicit member lists; nodes in no list stay
/// singletons.
graph::Partition partition_from_groups(
    std::size_t node_count,
    const std::vector<std::vector<graph::NodeIndex>>& groups) {
  std::vector<graph::NodeIndex> rep_of(node_count);
  for (std::size_t v = 0; v < node_count; ++v) {
    rep_of[v] = static_cast<graph::NodeIndex>(v);
  }
  for (const auto& group : groups) {
    if (group.empty()) continue;
    const graph::NodeIndex rep = *std::min_element(group.begin(), group.end());
    for (const graph::NodeIndex v : group) rep_of[v] = rep;
  }
  return partition_from_reps(rep_of);
}

/// The live clusters of one greedy merge run, as per-representative state
/// in flat vectors indexed by node. A cluster's representative is its
/// smallest member, which is stable under merging (the union keeps the
/// smaller one); a node that represents no live cluster has no members. A
/// merge costs O(size of the two clusters), and the dense Partition is
/// written once, when the run ends.
class LiveClusters {
 public:
  explicit LiveClusters(const graph::Partition& partition)
      : members_(partition.cluster_of.size()),
        version_(partition.cluster_of.size(), 0),
        count_(partition.cluster_count) {
    std::vector<graph::NodeIndex> rep(partition.cluster_count, kNoNode);
    for (std::size_t v = 0; v < members_.size(); ++v) {
      graph::NodeIndex& r = rep[partition.cluster_of[v]];
      if (r == kNoNode) r = static_cast<graph::NodeIndex>(v);
      members_[r].push_back(static_cast<graph::NodeIndex>(v));
    }
  }

  [[nodiscard]] std::size_t node_count() const { return members_.size(); }
  [[nodiscard]] std::uint32_t count() const { return count_; }
  [[nodiscard]] bool alive(graph::NodeIndex rep) const {
    return !members_[rep].empty();
  }
  /// Ascending members of the cluster `rep` represents.
  [[nodiscard]] const std::vector<graph::NodeIndex>& members(
      graph::NodeIndex rep) const {
    return members_[rep];
  }
  /// Bumped whenever the cluster's membership changes, including when it
  /// is merged away, so a candidate pair recorded earlier reads as stale.
  [[nodiscard]] std::uint64_t version(graph::NodeIndex rep) const {
    return version_[rep];
  }

  /// Folds cluster `drop` into cluster `keep` (keep < drop).
  void merge(graph::NodeIndex keep, graph::NodeIndex drop) {
    scratch_.clear();
    std::merge(members_[keep].begin(), members_[keep].end(),
               members_[drop].begin(), members_[drop].end(),
               std::back_inserter(scratch_));
    members_[keep].swap(scratch_);
    members_[drop].clear();
    ++version_[keep];
    ++version_[drop];
    --count_;
  }

  /// The dense partition, clusters numbered by ascending representative.
  [[nodiscard]] graph::Partition partition() const {
    graph::Partition partition;
    partition.cluster_of.resize(members_.size());
    for (const std::vector<graph::NodeIndex>& members : members_) {
      if (members.empty()) continue;
      for (const graph::NodeIndex v : members) {
        partition.cluster_of[v] = partition.cluster_count;
      }
      ++partition.cluster_count;
    }
    return partition;
  }

 private:
  std::vector<std::vector<graph::NodeIndex>> members_;
  std::vector<std::uint64_t> version_;
  std::vector<graph::NodeIndex> scratch_;
  std::uint32_t count_;
};

}  // namespace

void ClusterEngine::QuotientCache::reset(const SwGraph& sw,
                                         const graph::Partition& partition) {
  sw_ = &sw;
  bundles_.clear();
  adjacency_.assign(partition.cluster_of.size(), {});
  bundle_pool_.clear();
  // Representative of each cluster: its smallest member node index.
  std::vector<graph::NodeIndex> rep(partition.cluster_count,
                                    graph::NodeIndex(0));
  std::vector<bool> seen(partition.cluster_count, false);
  for (std::size_t v = 0; v < partition.cluster_of.size(); ++v) {
    const std::uint32_t c = partition.cluster_of[v];
    if (!seen[c]) {
      seen[c] = true;
      rep[c] = static_cast<graph::NodeIndex>(v);
    }
  }
  const auto& edges = sw.influence_graph().edges();
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const graph::Edge& edge = edges[e];
    if (sw.replicas(edge.from, edge.to)) continue;  // 0-weight replica links
    const std::uint32_t ca = partition.cluster_of[edge.from];
    const std::uint32_t cb = partition.cluster_of[edge.to];
    if (ca == cb) continue;
    const std::uint64_t key =
        (static_cast<std::uint64_t>(rep[ca]) << 32) | rep[cb];
    bundles_[key].push_back(static_cast<std::uint32_t>(e));
    adjacency_[rep[ca]].push_back(rep[cb]);
    adjacency_[rep[cb]].push_back(rep[ca]);
  }
  // Edge iteration order already leaves each bundle ascending.
  for (auto& adj : adjacency_) {
    std::sort(adj.begin(), adj.end());
    adj.erase(std::unique(adj.begin(), adj.end()), adj.end());
  }
}

const std::vector<graph::NodeIndex>& ClusterEngine::QuotientCache::neighbors(
    graph::NodeIndex rep) const {
  static const std::vector<graph::NodeIndex> kEmpty;
  return rep < adjacency_.size() ? adjacency_[rep] : kEmpty;
}

void ClusterEngine::QuotientCache::recycle(std::vector<std::uint32_t>&& bundle) {
  bundle.clear();
  bundle_pool_.push_back(std::move(bundle));
}

std::vector<std::uint32_t> ClusterEngine::QuotientCache::fresh_bundle() {
  if (bundle_pool_.empty()) return {};
  std::vector<std::uint32_t> bundle = std::move(bundle_pool_.back());
  bundle_pool_.pop_back();
  FCM_OBS_COUNT("quotient_cache.pool_reuses", 1);
  return bundle;
}

double ClusterEngine::QuotientCache::combine(std::uint64_t key) const {
  const auto it = bundles_.find(key);
  if (it == bundles_.end()) return 0.0;
  // Eq. 4 over the crossing edges, multiplying complements in ascending
  // edge order — the exact operation order of combine_probabilistic over
  // the bundle influence_quotient() would collect.
  const auto& edges = sw_->influence_graph().edges();
  double none = 1.0;
  for (const std::uint32_t e : it->second) none *= 1.0 - edges[e].weight;
  return std::clamp(1.0 - none, 0.0, 1.0);
}

double ClusterEngine::QuotientCache::mutual(graph::NodeIndex rep_a,
                                            graph::NodeIndex rep_b) const {
  return combine((static_cast<std::uint64_t>(rep_a) << 32) | rep_b) +
         combine((static_cast<std::uint64_t>(rep_b) << 32) | rep_a);
}

void ClusterEngine::QuotientCache::fold_bundle_into(std::uint64_t key,
                                                    std::uint64_t target) {
  const auto it = bundles_.find(key);
  if (it == bundles_.end()) return;
  std::vector<std::uint32_t> indices = std::move(it->second);
  bundles_.erase(it);
  const auto slot = bundles_.find(target);
  if (slot == bundles_.end()) {
    bundles_.emplace(target, std::move(indices));
    return;
  }
  // Both input clusters fed this target pair: merge the two ascending runs
  // into the canonical ascending edge order a fresh rebuild would produce.
  std::vector<std::uint32_t> folded = fresh_bundle();
  folded.reserve(slot->second.size() + indices.size());
  std::merge(slot->second.begin(), slot->second.end(), indices.begin(),
             indices.end(), std::back_inserter(folded));
  recycle(std::move(slot->second));
  recycle(std::move(indices));
  slot->second = std::move(folded);
}

void ClusterEngine::QuotientCache::merge(graph::NodeIndex rep_a,
                                         graph::NodeIndex rep_b) {
  // Only bundles adjacent to the two input clusters can be affected, and
  // the neighbor index knows exactly which those are — no scan over the
  // remaining bundles.
  const graph::NodeIndex merged = std::min(rep_a, rep_b);
  auto& affected = affected_scratch_;
  affected.clear();
  for (const graph::NodeIndex rep : {rep_a, rep_b}) {
    for (const graph::NodeIndex c : neighbors(rep)) {
      if (c != rep_a && c != rep_b) affected.push_back(c);
    }
  }
  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()),
                 affected.end());
  // Edges between the two inputs become internal and disappear.
  for (const std::uint64_t key :
       {(static_cast<std::uint64_t>(rep_a) << 32) | rep_b,
        (static_cast<std::uint64_t>(rep_b) << 32) | rep_a}) {
    const auto it = bundles_.find(key);
    if (it == bundles_.end()) continue;
    recycle(std::move(it->second));
    bundles_.erase(it);
  }
  const graph::NodeIndex other = std::max(rep_a, rep_b);
  for (const graph::NodeIndex c : affected) {
    FCM_OBS_COUNT("quotient_cache.delta_updates", 1);
    // merged == min(rep_a, rep_b), so the min-side bundle already sits
    // under the target key; only the max side needs folding in.
    fold_bundle_into((static_cast<std::uint64_t>(other) << 32) | c,
                     (static_cast<std::uint64_t>(merged) << 32) | c);
    fold_bundle_into((static_cast<std::uint64_t>(c) << 32) | other,
                     (static_cast<std::uint64_t>(c) << 32) | merged);
  }
  update_adjacency_after_merge(rep_a, rep_b, merged);
}

void ClusterEngine::QuotientCache::update_adjacency_after_merge(
    graph::NodeIndex rep_a, graph::NodeIndex rep_b, graph::NodeIndex merged) {
  const std::vector<graph::NodeIndex>& adj_a = adjacency_[rep_a];
  const std::vector<graph::NodeIndex>& adj_b = adjacency_[rep_b];
  std::vector<graph::NodeIndex>& merged_adj = adjacency_scratch_;
  merged_adj.clear();
  std::merge(adj_a.begin(), adj_a.end(), adj_b.begin(), adj_b.end(),
             std::back_inserter(merged_adj));
  merged_adj.erase(std::unique(merged_adj.begin(), merged_adj.end()),
                   merged_adj.end());
  merged_adj.erase(  // edges between the two inputs became internal
      std::remove_if(merged_adj.begin(), merged_adj.end(),
                     [&](graph::NodeIndex c) {
                       return c == rep_a || c == rep_b;
                     }),
      merged_adj.end());
  const graph::NodeIndex other = std::max(rep_a, rep_b);
  for (const graph::NodeIndex c : merged_adj) {
    auto& adj = adjacency_[c];
    const auto drop = std::lower_bound(adj.begin(), adj.end(), other);
    if (drop != adj.end() && *drop == other) adj.erase(drop);
    const auto put = std::lower_bound(adj.begin(), adj.end(), merged);
    if (put == adj.end() || *put != merged) adj.insert(put, merged);
  }
  adjacency_[other].clear();
  // The merged list moves in; the scratch keeps the retired buffer.
  adjacency_[merged].swap(merged_adj);
}

std::vector<std::vector<std::string>> ClusteringResult::cluster_names(
    const SwGraph& sw) const {
  std::vector<std::vector<std::string>> names(partition.cluster_count);
  for (std::size_t v = 0; v < partition.cluster_of.size(); ++v) {
    names[partition.cluster_of[v]].push_back(
        sw.node(static_cast<graph::NodeIndex>(v)).name);
  }
  return names;
}

double ClusteringResult::cross_cluster_influence() const {
  return quotient.total_weight();
}

ClusterEngine::ClusterEngine(const SwGraph& sw, ClusteringOptions options)
    : sw_(&sw), options_(options) {
  FCM_REQUIRE(options_.target_clusters >= 1,
              "target cluster count must be positive");
  FCM_REQUIRE(options_.incremental_quotient,
              "the full-rebuild quotient mode was removed; "
              "incremental_quotient must be true");
  // Each node's origin gets a dense slot for the replica test, and its
  // timing a cached job for the schedulability test.
  const std::size_t n = sw.node_count();
  std::map<FcmId, std::uint32_t> slot_of;
  std::vector<int> degree;
  origin_slot_.reserve(n);
  node_job_.resize(n);
  timing_kind_.resize(n, TimingKind::kNone);
  for (std::size_t v = 0; v < n; ++v) {
    const SwNode& node = sw.nodes()[v];
    const auto [slot, fresh] = slot_of.emplace(
        node.origin, static_cast<std::uint32_t>(slot_of.size()));
    if (fresh) degree.push_back(0);
    origin_slot_.push_back(slot->second);
    degree[slot->second] =
        std::max(degree[slot->second], node.replica_index + 1);
    if (!node.attributes.timing.has_value()) continue;
    const core::TimingSpec& timing = *node.attributes.timing;
    if (timing.is_periodic()) {
      timing_kind_[v] = TimingKind::kPeriodic;
    } else {
      timing_kind_[v] = TimingKind::kOneShot;
      node_job_[v] = timing.to_job(JobId(static_cast<std::uint32_t>(v)),
                                   node.name);
    }
  }
  origin_stamp_.assign(slot_of.size(), 0);
  // Replicas of one process need that many distinct clusters.
  for (const auto& [origin, slot] : slot_of) {
    FCM_REQUIRE(
        options_.target_clusters >= static_cast<std::size_t>(degree[slot]),
        "replication degree " + std::to_string(degree[slot]) +
            " exceeds the target cluster count (" +
            std::to_string(options_.target_clusters) +
            "): replicas must map to distinct HW nodes");
  }
}

bool ClusterEngine::members_schedulable(
    std::span<const graph::NodeIndex> a, std::span<const graph::NodeIndex> b) {
  jobs_scratch_.clear();
  periodic_scratch_.clear();
  const auto collect = [&](graph::NodeIndex v) {
    if (timing_kind_[v] == TimingKind::kOneShot) {
      jobs_scratch_.push_back(node_job_[v]);
    } else if (timing_kind_[v] == TimingKind::kPeriodic) {
      const SwNode& node = sw_->node(v);
      periodic_scratch_.push_back(
          node.attributes.timing->to_periodic_task(node.name));
    }
  };
  for (const graph::NodeIndex v : a) collect(v);
  for (const graph::NodeIndex v : b) collect(v);
  if (periodic_scratch_.empty()) {
    return sched::feasible(options_.policy, jobs_scratch_);
  }
  return sched::mixed_feasible(jobs_scratch_, periodic_scratch_);
}

bool ClusterEngine::resources_hostable(
    std::span<const graph::NodeIndex> a,
    std::span<const graph::NodeIndex> b) const {
  if (!options_.resource_check) return true;
  std::set<std::string> combined;
  const auto collect = [&](graph::NodeIndex v) {
    const auto& req = sw_->node(v).attributes.required_resources;
    combined.insert(req.begin(), req.end());
  };
  for (const graph::NodeIndex v : a) collect(v);
  for (const graph::NodeIndex v : b) collect(v);
  return combined.empty() || options_.resource_check(combined);
}

bool ClusterEngine::combinable(std::span<const graph::NodeIndex> a,
                               std::span<const graph::NodeIndex> b) {
  // Replica anti-affinity across the union: stamp a's origins, probe b's.
  ++stamp_;
  for (const graph::NodeIndex v : a) origin_stamp_[origin_slot_[v]] = stamp_;
  for (const graph::NodeIndex v : b) {
    if (origin_stamp_[origin_slot_[v]] == stamp_) return false;
  }
  if (!resources_hostable(a, b)) return false;
  if (!options_.enforce_schedulability) return true;
  return members_schedulable(a, b);
}

bool ClusterEngine::can_combine(const graph::Partition& partition,
                                std::uint32_t cluster_a,
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
  return combinable(a_members, b_members);
}

graph::Digraph ClusterEngine::influence_quotient(
    const graph::Partition& partition) const {
  const auto groups = partition.groups();
  graph::Digraph q;
  for (const auto& members : groups) q.add_node(join_names(*sw_, members));
  // Flat sort-based bundling instead of a map of per-pair weight vectors —
  // one allocation for all crossing edges. stable_sort keeps edges of one
  // pair in edge order and pairs emit in ascending (ca, cb), so the Eq. 4
  // complement products and the edge insertion order match the previous
  // map-based build bitwise.
  struct CrossEdge {
    std::uint32_t ca, cb;
    double weight;
  };
  std::vector<CrossEdge> cross;
  cross.reserve(sw_->influence_graph().edge_count());
  for (const graph::Edge& e : sw_->influence_graph().edges()) {
    if (sw_->replicas(e.from, e.to)) continue;  // drop 0-weight replica links
    const std::uint32_t ca = partition.cluster_of[e.from];
    const std::uint32_t cb = partition.cluster_of[e.to];
    if (ca == cb) continue;
    cross.push_back({ca, cb, e.weight});
  }
  std::stable_sort(cross.begin(), cross.end(),
                   [](const CrossEdge& x, const CrossEdge& y) {
                     if (x.ca != y.ca) return x.ca < y.ca;
                     return x.cb < y.cb;
                   });
  for (std::size_t i = 0; i < cross.size();) {
    const std::uint32_t ca = cross[i].ca;
    const std::uint32_t cb = cross[i].cb;
    double none = 1.0;
    for (; i < cross.size() && cross[i].ca == ca && cross[i].cb == cb; ++i) {
      none *= 1.0 - cross[i].weight;
    }
    q.add_edge(ca, cb, std::clamp(1.0 - none, 0.0, 1.0));
  }
  return q;
}

ClusteringResult ClusterEngine::finish(graph::Partition partition,
                                       std::vector<std::string> steps) const {
  ClusteringResult result;
  result.quotient = influence_quotient(partition);
  result.partition = std::move(partition);
  result.steps = std::move(steps);
  return result;
}

ClusteringResult ClusterEngine::h1_greedy() {
  graph::Partition partition =
      graph::Partition::identity(sw_->node_count());
  quotient_cache_.reset(*sw_, partition);
  std::vector<std::string> steps;
  greedy_merge_to_target(partition, steps, GreedyStepStyle::kCombine);
  return finish(std::move(partition), std::move(steps));
}

void ClusterEngine::throw_no_combinable_pair(
    const graph::Partition& partition, GreedyStepStyle style) const {
  if (style == GreedyStepStyle::kCombine) {
    throw Infeasible(
        "H1: no combinable cluster pair remains at " +
        std::to_string(partition.cluster_count) + " clusters (target " +
        std::to_string(options_.target_clusters) + ")");
  }
  throw Infeasible("H2: repair phase cannot re-merge to the target");
}

std::string ClusterEngine::greedy_step_text(GreedyStepStyle style,
                                            const std::string& a_names,
                                            const std::string& b_names,
                                            double mutual) {
  std::ostringstream step;
  if (style == GreedyStepStyle::kCombine) {
    step << "combine " << a_names << " + " << b_names
         << " (mutual influence " << mutual << ")";
  } else {
    step << "repair-merge " << a_names << " + " << b_names;
  }
  return step.str();
}

void ClusterEngine::greedy_merge_to_target(graph::Partition& partition,
                                           std::vector<std::string>& steps,
                                           GreedyStepStyle style) {
  // Lazy-deletion max-heap over candidate cluster pairs, keyed by mutual
  // influence. Clusters live as per-representative state (LiveClusters):
  // the representative (smallest member node index) is stable under
  // merging, and a version stamp bumped whenever the cluster's membership
  // changes lets superseded entries be recognized and dropped on pop
  // instead of being searched for. Every step costs O(size of the two
  // clusters it touches); the dense partition is written once at the end.
  //
  // Tie breaks: cluster indices are ordered by smallest member
  // (Partition::merge keeps the lower index and shifts the rest down), so
  // ordering ties by ascending (rep_a, rep_b) picks the lowest cluster
  // indices, as an O(k²) scan over ascending (a, b) with first-wins would
  // (tests/mapping/h1_scan_reference.h keeps that scan as the oracle). A
  // popped pair that fails can_combine is discarded for good because
  // combinability depends only on the two clusters' members, and any later
  // membership change reinserts the pair with fresh stamps.
  FCM_OBS_SPAN("h1.greedy_merge");
  // Local tallies flushed once at the end: the merge loop is sequential, so
  // one registry call per run costs nothing on the pop path.
  std::uint64_t pops = 0, stale_pops = 0, recomputes = 0, inherits = 0,
                merges = 0, zero_fallbacks = 0;

  struct Candidate {
    double mutual;
    graph::NodeIndex rep_a, rep_b;  // rep_a < rep_b
    std::uint64_t ver_a, ver_b;
  };
  // "Worse" comparator: lower mutual influence, then higher (rep_a, rep_b).
  const auto worse = [](const Candidate& x, const Candidate& y) {
    if (x.mutual != y.mutual) return x.mutual < y.mutual;
    if (x.rep_a != y.rep_a) return x.rep_a > y.rep_a;
    return x.rep_b > y.rep_b;
  };

  LiveClusters clusters(partition);
  const auto n = static_cast<graph::NodeIndex>(clusters.node_count());
  // Last known exact mutual value per live positive pair, keyed
  // (lo << 32 | hi) by representatives. When a merge leaves a neighbor's
  // edge bundle untouched — the neighbor was adjacent to only one of the
  // two merged clusters, so the fold just re-keys its bundle — the pair's
  // mutual value is bitwise unchanged and is inherited from here instead
  // of re-running the Eq. 4 product.
  std::unordered_map<std::uint64_t, double> pair_value;
  const auto pair_key = [](graph::NodeIndex lo, graph::NodeIndex hi) {
    return (static_cast<std::uint64_t>(lo) << 32) | hi;
  };

  // Seed only pairs sharing at least one crossing influence edge with
  // positive combined influence — every other pair is exactly 0.0 and is
  // reached through the zero-mutual fallback below once the heap drains.
  // At scale this is O(edges) candidates instead of O(clusters²).
  std::vector<Candidate> heap;
  for (graph::NodeIndex a = 0; a < n; ++a) {
    if (!clusters.alive(a)) continue;
    for (const graph::NodeIndex b : quotient_cache_.neighbors(a)) {
      if (b <= a) continue;
      const double m = quotient_cache_.mutual(a, b);
      if (m > 0.0) {
        heap.push_back({m, a, b, 0, 0});
        pair_value.emplace(pair_key(a, b), m);
      }
    }
  }
  std::make_heap(heap.begin(), heap.end(), worse);

  // Pre-merge neighbor snapshots, reused across merges.
  std::vector<graph::NodeIndex> na_scratch, nb_scratch;

  const auto apply_merge = [&](graph::NodeIndex rep_a, graph::NodeIndex rep_b,
                               double mutual_value) {
    if (options_.log_steps) {
      steps.push_back(greedy_step_text(
          style, join_names(*sw_, clusters.members(rep_a)),
          join_names(*sw_, clusters.members(rep_b)), mutual_value));
    }
    // Snapshot both adjacency lists before the cache merge folds them.
    na_scratch = quotient_cache_.neighbors(rep_a);
    nb_scratch = quotient_cache_.neighbors(rep_b);
    quotient_cache_.merge(rep_a, rep_b);
    const graph::NodeIndex merged = std::min(rep_a, rep_b);
    clusters.merge(merged, std::max(rep_a, rep_b));
    // Only pairs touching the merged cluster need fresh influence values,
    // and of those only its bundle-neighbors can be positive; the neighbor
    // index (already folded by the cache merge above) lists exactly those,
    // ascending. A neighbor of only one merged side keeps a
    // bitwise-identical bundle, so its mutual value is inherited; only
    // neighbors of both sides get a fresh Eq. 4 evaluation.
    pair_value.erase(pair_key(merged, std::max(rep_a, rep_b)));
    for (const graph::NodeIndex c : quotient_cache_.neighbors(merged)) {
      const bool in_a =
          std::binary_search(na_scratch.begin(), na_scratch.end(), c);
      const bool in_b =
          std::binary_search(nb_scratch.begin(), nb_scratch.end(), c);
      const std::uint64_t key_a =
          pair_key(std::min(rep_a, c), std::max(rep_a, c));
      const std::uint64_t key_b =
          pair_key(std::min(rep_b, c), std::max(rep_b, c));
      const graph::NodeIndex lo = std::min(c, merged);
      const graph::NodeIndex hi = std::max(c, merged);
      double m = 0.0;
      if (in_a && in_b) {
        m = quotient_cache_.mutual(lo, hi);
        ++recomputes;
      } else {
        const auto it = pair_value.find(in_a ? key_a : key_b);
        m = it == pair_value.end() ? 0.0 : it->second;
        ++inherits;
      }
      pair_value.erase(key_a);
      pair_value.erase(key_b);
      if (m <= 0.0) continue;
      pair_value.emplace(pair_key(lo, hi), m);
      heap.push_back({m, lo, hi, clusters.version(lo), clusters.version(hi)});
      std::push_heap(heap.begin(), heap.end(), worse);
    }
    ++merges;
  };

  // Every remaining combinable pair has mutual influence exactly 0.0 once
  // the heap drains (positive pairs are heap-resident until popped, and a
  // popped pair that failed can_combine stays uncombinable until one of
  // its clusters changes, which re-inserts it). The tie break then picks
  // the first combinable pair in ascending cluster-index order — cluster
  // indices are ordered by representative, so scanning live
  // representatives in ascending order makes that choice.
  std::vector<graph::NodeIndex> live;
  const auto zero_mutual_fallback = [&]() {
    live.clear();
    for (graph::NodeIndex rep = 0; rep < n; ++rep) {
      if (clusters.alive(rep)) live.push_back(rep);
    }
    for (std::size_t i = 0; i < live.size(); ++i) {
      for (std::size_t j = i + 1; j < live.size(); ++j) {
        if (!combinable(clusters.members(live[i]),
                        clusters.members(live[j]))) {
          continue;
        }
        apply_merge(live[i], live[j], 0.0);
        ++zero_fallbacks;
        return true;
      }
    }
    return false;
  };

  while (clusters.count() > options_.target_clusters) {
    bool merged_one = false;
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), worse);
      const Candidate cand = heap.back();
      heap.pop_back();
      ++pops;
      if (clusters.version(cand.rep_a) != cand.ver_a ||
          clusters.version(cand.rep_b) != cand.ver_b) {
        ++stale_pops;
        continue;  // stale: a membership change superseded this entry
      }
      if (!combinable(clusters.members(cand.rep_a),
                      clusters.members(cand.rep_b))) {
        continue;
      }
      apply_merge(cand.rep_a, cand.rep_b, cand.mutual);
      merged_one = true;
      break;
    }
    if (!merged_one) merged_one = zero_mutual_fallback();
    if (!merged_one) {
      partition = clusters.partition();
      throw_no_combinable_pair(partition, style);
    }
  }
  partition = clusters.partition();
  FCM_OBS_COUNT("h1.heap.pops", pops);
  FCM_OBS_COUNT("h1.heap.stale_pops", stale_pops);
  FCM_OBS_COUNT("h1.heap.recomputes", recomputes);
  FCM_OBS_COUNT("h1.heap.inherits", inherits);
  FCM_OBS_COUNT("h1.heap.zero_fallbacks", zero_fallbacks);
  FCM_OBS_COUNT("h1.merges", merges);
}

ClusteringResult ClusterEngine::h1_rounds() {
  graph::Partition partition =
      graph::Partition::identity(sw_->node_count());
  quotient_cache_.reset(*sw_, partition);
  std::vector<std::string> steps;
  int round = 0;
  while (partition.cluster_count > options_.target_clusters) {
    ++round;
    const auto groups = partition.groups();
    // Rank all pairs by mutual influence.
    struct Pair {
      double m;
      std::uint32_t a, b;
    };
    std::vector<Pair> pairs;
    for (std::uint32_t a = 0; a < partition.cluster_count; ++a) {
      for (std::uint32_t b = a + 1; b < partition.cluster_count; ++b) {
        const double m =
            quotient_cache_.mutual(groups[a].front(), groups[b].front());
        pairs.push_back({m, a, b});
      }
    }
    std::sort(pairs.begin(), pairs.end(), [](const Pair& x, const Pair& y) {
      if (x.m != y.m) return x.m > y.m;
      if (x.a != y.a) return x.a < y.a;
      return x.b < y.b;
    });
    // Greedily select disjoint combinable pairs for this round.
    std::vector<bool> taken(partition.cluster_count, false);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> selected;
    const std::size_t max_merges =
        partition.cluster_count - options_.target_clusters;
    for (const Pair& p : pairs) {
      if (selected.size() >= max_merges) break;
      if (taken[p.a] || taken[p.b]) continue;
      if (!can_combine(partition, p.a, p.b)) continue;
      taken[p.a] = taken[p.b] = true;
      selected.emplace_back(p.a, p.b);
      if (options_.log_steps) {
        std::ostringstream step;
        step << "round " << round << ": pair "
             << join_names(*sw_, groups[p.a]) << " + "
             << join_names(*sw_, groups[p.b]) << " (mutual influence " << p.m
             << ")";
        steps.push_back(step.str());
      }
    }
    if (selected.empty()) {
      throw Infeasible("H1-rounds: no combinable pair in round " +
                       std::to_string(round));
    }
    // Selected pairs are disjoint, so their representatives stay current
    // while the merges apply one by one.
    for (const auto& [a, b] : selected) {
      quotient_cache_.merge(groups[a].front(), groups[b].front());
      partition.merge(groups[a].front(), groups[b].front());
    }
  }
  return finish(std::move(partition), std::move(steps));
}

std::vector<std::vector<graph::NodeIndex>>
ClusterEngine::partition_for_hierarchy(std::size_t parts_wanted) const {
  // Stoer–Wagner is O(V³) — fine for parts this small, far too slow for
  // thousands of nodes, where the BFS-order halving takes over.
  constexpr std::size_t kMinCutLimit = 192;
  const std::size_t n = sw_->node_count();
  const graph::Digraph& g = sw_->influence_graph();

  std::vector<std::vector<graph::NodeIndex>> parts;
  {
    std::vector<graph::NodeIndex> all(n);
    for (std::size_t v = 0; v < n; ++v) {
      all[v] = static_cast<graph::NodeIndex>(v);
    }
    parts.push_back(std::move(all));
  }

  std::vector<char> in_part(n, 0);
  std::vector<char> visited(n, 0);
  // Positive-weight neighbors of each node in either direction (replica
  // links carry weight 0 and are ignored), ascending and duplicate-free:
  // node u's list is adjacent[offset[u] .. offset[u + 1]). Built on the
  // first BFS split.
  std::vector<std::size_t> offset;
  std::vector<graph::NodeIndex> adjacent;
  const auto build_adjacency = [&] {
    std::vector<std::pair<graph::NodeIndex, graph::NodeIndex>> links;
    links.reserve(2 * g.edge_count());
    for (const graph::Edge& edge : g.edges()) {
      if (edge.weight <= 0.0) continue;
      links.emplace_back(edge.from, edge.to);
      links.emplace_back(edge.to, edge.from);
    }
    std::sort(links.begin(), links.end());
    links.erase(std::unique(links.begin(), links.end()), links.end());
    offset.assign(n + 1, 0);
    adjacent.reserve(links.size());
    for (const auto& [from, to] : links) {
      ++offset[from + 1];
      adjacent.push_back(to);
    }
    for (std::size_t v = 0; v < n; ++v) offset[v + 1] += offset[v];
  };

  // Splits `part` at the midpoint of a BFS order over the positive-weight
  // influence edges, so each half keeps influence locality. Deterministic:
  // BFS seeds are the part's ascending unvisited nodes and neighbors
  // enqueue in ascending index.
  const auto bfs_halves = [&](const std::vector<graph::NodeIndex>& part,
                              std::vector<graph::NodeIndex>& first,
                              std::vector<graph::NodeIndex>& second) {
    if (offset.empty()) build_adjacency();
    for (const graph::NodeIndex v : part) {
      in_part[v] = 1;
      visited[v] = 0;
    }
    std::vector<graph::NodeIndex> order;
    order.reserve(part.size());
    std::size_t head = 0;
    for (const graph::NodeIndex seed : part) {
      if (visited[seed]) continue;
      visited[seed] = 1;
      order.push_back(seed);
      while (head < order.size()) {
        const graph::NodeIndex u = order[head++];
        for (std::size_t k = offset[u]; k < offset[u + 1]; ++k) {
          const graph::NodeIndex v = adjacent[k];
          if (in_part[v] && !visited[v]) {
            visited[v] = 1;
            order.push_back(v);
          }
        }
      }
    }
    const std::size_t half = (part.size() + 1) / 2;
    first.assign(order.begin(),
                 order.begin() + static_cast<std::ptrdiff_t>(half));
    second.assign(order.begin() + static_cast<std::ptrdiff_t>(half),
                  order.end());
    std::sort(first.begin(), first.end());
    std::sort(second.begin(), second.end());
    for (const graph::NodeIndex v : part) in_part[v] = 0;
  };

  while (parts.size() < parts_wanted) {
    std::size_t largest = parts.size();
    for (std::size_t i = 0; i < parts.size(); ++i) {
      if (parts[i].size() < 2) continue;
      if (largest == parts.size() ||
          parts[i].size() > parts[largest].size()) {
        largest = i;
      }
    }
    if (largest == parts.size()) break;  // all parts singleton
    const std::vector<graph::NodeIndex> part = std::move(parts[largest]);
    std::vector<graph::NodeIndex> first, second;
    if (part.size() <= kMinCutLimit) {
      const graph::CutResult cut = graph::global_min_cut_subset(g, part);
      for (const graph::NodeIndex v : part) {
        (cut.in_first_side[v] ? first : second).push_back(v);
      }
      FCM_REQUIRE(!first.empty() && !second.empty(),
                  "min-cut produced a degenerate split");
    } else {
      bfs_halves(part, first, second);
    }
    parts[largest] = std::move(first);
    parts.push_back(std::move(second));
  }
  return parts;
}

ClusteringResult ClusterEngine::h1_hierarchical() {
  const std::size_t n = sw_->node_count();
  constexpr std::size_t kNodesPerPart = 96;
  const std::size_t parts_wanted =
      options_.hierarchy_parts > 0
          ? options_.hierarchy_parts
          : std::clamp<std::size_t>(n / kNodesPerPart, std::size_t{1},
                                    options_.target_clusters);
  // At a target of at least the node count H1 performs no merges, so the
  // spare HW nodes h1_greedy accepts are accepted here too.
  if (parts_wanted <= 1 || options_.target_clusters >= n) return h1_greedy();
  FCM_OBS_SPAN("h1.hierarchical");

  const std::vector<std::vector<graph::NodeIndex>> parts =
      partition_for_hierarchy(parts_wanted);
  FCM_OBS_COUNT("h1.hierarchical.parts", parts.size());

  // Local cluster targets: a proportional share of the global target by
  // part size, floored by the part's replica need (replicas of one process
  // inside a part require that many distinct local clusters) and topped up
  // in largest-remainder order until the local targets sum to at least the
  // global target — the final phase then only ever merges.
  std::vector<std::size_t> target(parts.size());
  std::vector<std::size_t> remainder(parts.size());
  std::size_t total = 0;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    std::map<FcmId, std::size_t> per_origin;
    std::size_t need = 1;
    for (const graph::NodeIndex v : parts[i]) {
      need = std::max(need, ++per_origin[sw_->node(v).origin]);
    }
    const std::size_t share = options_.target_clusters * parts[i].size();
    target[i] = std::min(parts[i].size(), std::max(need, share / n));
    remainder[i] = share % n;
    total += target[i];
  }
  while (total < options_.target_clusters) {
    std::size_t pick = parts.size();
    for (std::size_t i = 0; i < parts.size(); ++i) {
      if (target[i] >= parts[i].size()) continue;
      if (pick == parts.size() || remainder[i] > remainder[pick]) pick = i;
    }
    FCM_REQUIRE(pick < parts.size(),
                "hierarchical: cannot distribute local cluster targets");
    ++target[pick];
    ++total;
    remainder[pick] = 0;
  }

  // Per-part H1 runs — independent of each other and of the lane running
  // them, so the composed result is bitwise identical for any thread
  // count. Errors are captured per slot and rethrown in part order.
  struct PartOutcome {
    graph::Partition partition;
    std::vector<std::string> steps;
    std::size_t achieved_target = 0;
    std::exception_ptr error;
  };
  std::vector<PartOutcome> outcomes(parts.size());
  const std::uint32_t threads =
      exec::resolve_threads(options_.threads, parts.size());
  exec::parallel_for_blocks(
      parts.size(), threads, [&](std::uint64_t b, std::uint32_t /*lane*/) {
        PartOutcome& out = outcomes[b];
        try {
          const SwGraph sub = sw_->subset(parts[b]);
          ClusteringOptions local = options_;
          local.threads = 1;
          local.hierarchy_parts = 1;
          // An infeasible local target is relaxed upward; at target ==
          // part size H1 performs no merges, so the loop always lands.
          for (std::size_t t = target[b];; ++t) {
            local.target_clusters = t;
            ClusterEngine local_engine(sub, local);
            try {
              ClusteringResult local_result = local_engine.h1_greedy();
              out.partition = std::move(local_result.partition);
              out.steps = std::move(local_result.steps);
              out.achieved_target = t;
              break;
            } catch (const Infeasible&) {
              if (t >= parts[b].size()) throw;
            }
          }
        } catch (...) {
          out.error = std::current_exception();
        }
      });
  for (PartOutcome& out : outcomes) {
    if (out.error) std::rethrow_exception(out.error);
  }

  // Compose the global partition and step log in fixed part order, then
  // H1-merge across parts down to the global target. Parts are ascending,
  // so a local cluster's first member maps to its global representative.
  std::vector<graph::NodeIndex> rep_of(n);
  std::vector<graph::NodeIndex> local_rep;
  std::vector<std::string> steps;
  if (options_.log_steps) {
    std::ostringstream head;
    head << "hierarchical: " << parts.size() << " parts over " << n
         << " nodes (target " << options_.target_clusters << ")";
    steps.push_back(head.str());
  }
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const graph::Partition& local = outcomes[i].partition;
    local_rep.assign(local.cluster_count, kNoNode);
    for (std::size_t k = 0; k < parts[i].size(); ++k) {
      graph::NodeIndex& rep = local_rep[local.cluster_of[k]];
      if (rep == kNoNode) rep = parts[i][k];
      rep_of[parts[i][k]] = rep;
    }
    if (options_.log_steps) {
      std::ostringstream summary;
      summary << "part " << (i + 1) << ": " << parts[i].size()
              << " nodes -> " << local.cluster_count
              << " clusters (local target " << outcomes[i].achieved_target
              << ")";
      steps.push_back(summary.str());
      for (const std::string& s : outcomes[i].steps) {
        steps.push_back("part " + std::to_string(i + 1) + ": " + s);
      }
    }
  }
  graph::Partition partition = partition_from_reps(rep_of);
  quotient_cache_.reset(*sw_, partition);
  greedy_merge_to_target(partition, steps, GreedyStepStyle::kCombine);
  return finish(std::move(partition), std::move(steps));
}

ClusteringResult ClusterEngine::h2_mincut() {
  std::vector<graph::NodeIndex> all(sw_->node_count());
  for (std::size_t v = 0; v < sw_->node_count(); ++v) {
    all[v] = static_cast<graph::NodeIndex>(v);
  }
  return h2_driver({std::move(all)}, {});
}

ClusteringResult ClusterEngine::h2_st_cut(
    std::optional<graph::NodeIndex> source,
    std::optional<graph::NodeIndex> target) {
  FCM_REQUIRE(sw_->node_count() >= 2, "s-t cut needs at least two nodes");
  // Default endpoints: the two most important SW nodes (distinct).
  if (!source.has_value() || !target.has_value()) {
    graph::NodeIndex best = 0, second = 1;
    for (graph::NodeIndex v = 0; v < sw_->node_count(); ++v) {
      if (sw_->node(v).importance > sw_->node(best).importance) best = v;
    }
    second = best == 0 ? 1 : 0;
    for (graph::NodeIndex v = 0; v < sw_->node_count(); ++v) {
      if (v != best &&
          sw_->node(v).importance > sw_->node(second).importance) {
        second = v;
      }
    }
    if (!source.has_value()) source = best;
    if (!target.has_value()) target = second;
  }
  FCM_REQUIRE(*source != *target, "source and target must differ");
  FCM_REQUIRE(*source < sw_->node_count() && *target < sw_->node_count(),
              "s-t endpoints out of range");

  const graph::StCutResult cut =
      graph::st_min_cut(sw_->influence_graph(), *source, *target);
  std::vector<graph::NodeIndex> first, second_side;
  for (graph::NodeIndex v = 0; v < sw_->node_count(); ++v) {
    (cut.on_source_side[v] ? first : second_side).push_back(v);
  }
  std::vector<std::string> steps;
  if (options_.log_steps) {
    std::ostringstream step;
    step << "s-t cut separating " << sw_->node(*source).name << " from "
         << sw_->node(*target).name << " (cut weight " << cut.flow << ")";
    steps.push_back(step.str());
  }
  return h2_driver({std::move(first), std::move(second_side)},
                   std::move(steps));
}

ClusteringResult ClusterEngine::h2_driver(
    std::vector<std::vector<graph::NodeIndex>> parts,
    std::vector<std::string> steps) {

  auto part_valid = [&](const std::vector<graph::NodeIndex>& part) {
    for (std::size_t i = 0; i < part.size(); ++i) {
      for (std::size_t j = i + 1; j < part.size(); ++j) {
        if (sw_->replicas(part[i], part[j])) return false;
      }
    }
    if (!resources_hostable(part)) return false;
    if (!options_.enforce_schedulability) return true;
    return members_schedulable(part);
  };

  auto split_part = [&](std::size_t index) {
    const std::vector<graph::NodeIndex> part = parts[index];
    const graph::CutResult cut =
        graph::global_min_cut_subset(sw_->influence_graph(), part);
    std::vector<graph::NodeIndex> first, second;
    for (const graph::NodeIndex v : part) {
      (cut.in_first_side[v] ? first : second).push_back(v);
    }
    // A degenerate cut (everything on one side) cannot happen with
    // Stoer–Wagner, but guard for safety.
    FCM_REQUIRE(!first.empty() && !second.empty(),
                "min-cut produced a degenerate split");
    if (options_.log_steps) {
      std::ostringstream step;
      step << "cut {" << join_names(*sw_, part) << "} -> {"
           << join_names(*sw_, first) << "} | {" << join_names(*sw_, second)
           << "} (cut weight " << cut.weight << ")";
      steps.push_back(step.str());
    }
    parts[index] = std::move(first);
    parts.push_back(std::move(second));
  };

  // Phase 1: bisect the largest part until the target count, or into
  // singletons when the target exceeds the node count (spare HW nodes, as
  // H1 accepts them).
  const std::size_t split_target =
      std::min(options_.target_clusters, sw_->node_count());
  while (parts.size() < split_target) {
    std::size_t largest = parts.size();
    for (std::size_t i = 0; i < parts.size(); ++i) {
      if (parts[i].size() < 2) continue;
      if (largest == parts.size() ||
          parts[i].size() > parts[largest].size()) {
        largest = i;
      }
    }
    FCM_REQUIRE(largest < parts.size(),
                "H2: cannot reach the target count (all parts singleton)");
    split_part(largest);
  }

  // Phase 2: repair — split any part violating constraints.
  for (int guard = 0; guard < 1000; ++guard) {
    std::size_t violating = parts.size();
    for (std::size_t i = 0; i < parts.size(); ++i) {
      if (parts[i].size() >= 2 && !part_valid(parts[i])) {
        violating = i;
        break;
      }
    }
    if (violating == parts.size()) break;
    split_part(violating);
  }

  // Build the partition from parts, then re-merge down to target with H1
  // steps if the repair overshot.
  graph::Partition partition =
      partition_from_groups(sw_->node_count(), parts);
  quotient_cache_.reset(*sw_, partition);
  greedy_merge_to_target(partition, steps, GreedyStepStyle::kRepairMerge);
  return finish(std::move(partition), std::move(steps));
}

ClusteringResult ClusterEngine::h3_importance(double importance_threshold,
                                              double influence_threshold) {
  const std::size_t n = sw_->node_count();
  // Seeds: the target_clusters most important nodes (every node when the
  // target exceeds the node count: spare HW nodes, as H1 accepts them).
  const std::size_t seeds = std::min(options_.target_clusters, n);
  std::vector<graph::NodeIndex> order(n);
  for (std::size_t v = 0; v < n; ++v) {
    order[v] = static_cast<graph::NodeIndex>(v);
  }
  std::sort(order.begin(), order.end(),
            [&](graph::NodeIndex a, graph::NodeIndex b) {
              if (sw_->node(a).importance != sw_->node(b).importance) {
                return sw_->node(a).importance > sw_->node(b).importance;
              }
              return a < b;
            });
  std::vector<bool> is_seed(n, false);
  std::vector<std::string> steps;
  for (std::size_t k = 0; k < seeds; ++k) {
    is_seed[order[k]] = true;
    if (options_.log_steps) {
      steps.push_back("seed " + sw_->node(order[k]).name + " (importance " +
                      std::to_string(sw_->node(order[k]).importance) + ")");
    }
  }

  graph::Partition partition = graph::Partition::identity(n);
  quotient_cache_.reset(*sw_, partition);
  // Attach non-seeds (most important first) to their best seed cluster.
  for (std::size_t k = seeds; k < n; ++k) {
    const graph::NodeIndex v = order[k];
    const auto groups = partition.groups();
    const std::uint32_t v_cluster = partition.cluster_of[v];
    double best = -1.0;
    std::uint32_t best_cluster = 0;
    for (std::size_t s = 0; s < n; ++s) {
      if (!is_seed[s]) continue;
      const std::uint32_t c = partition.cluster_of[s];
      if (c == v_cluster) continue;
      const double m = quotient_cache_.mutual(groups[v_cluster].front(),
                                              groups[c].front());
      const bool admitted =
          sw_->node(v).importance < importance_threshold ||
          m > influence_threshold;
      if (admitted && m > best && can_combine(partition, v_cluster, c)) {
        best = m;
        best_cluster = c;
      }
    }
    if (best < 0.0) {
      throw Infeasible("H3: node " + sw_->node(v).name +
                       " fits no sphere of influence");
    }
    if (options_.log_steps) {
      steps.push_back("attach " + sw_->node(v).name + " -> {" +
                      join_names(*sw_, groups[best_cluster]) +
                      "} (mutual influence " + std::to_string(best) + ")");
    }
    quotient_cache_.merge(groups[v_cluster].front(),
                          groups[best_cluster].front());
    partition.merge(v, groups[best_cluster].front());
  }
  return finish(std::move(partition), std::move(steps));
}

ClusteringResult ClusterEngine::criticality_pairing() {
  graph::Partition partition =
      graph::Partition::identity(sw_->node_count());
  std::vector<std::string> steps;

  auto summary_criticality = [&](std::uint32_t cluster) {
    core::Criticality crit = 0;
    for (std::size_t v = 0; v < partition.cluster_of.size(); ++v) {
      if (partition.cluster_of[v] == cluster) {
        crit = std::max(crit, sw_->node(static_cast<graph::NodeIndex>(v))
                                  .attributes.criticality);
      }
    }
    return crit;
  };

  int round = 0;
  while (partition.cluster_count > options_.target_clusters) {
    ++round;
    const auto groups = partition.groups();
    // Clusters in descending summary criticality (stable on index).
    std::vector<std::uint32_t> list(partition.cluster_count);
    for (std::uint32_t c = 0; c < partition.cluster_count; ++c) list[c] = c;
    std::sort(list.begin(), list.end(), [&](std::uint32_t a, std::uint32_t b) {
      const auto ca = summary_criticality(a);
      const auto cb = summary_criticality(b);
      if (ca != cb) return ca > cb;
      return a < b;
    });

    std::vector<bool> paired(list.size(), false);
    // Pairs as positions into `list` (hi position, lo position).
    std::vector<std::pair<std::size_t, std::size_t>> pairs;

    std::size_t hi = 0;
    while (true) {
      while (hi < list.size() && paired[hi]) ++hi;
      // Find the last unpaired position beyond hi.
      std::size_t lo = list.size();
      for (std::size_t k = list.size(); k-- > hi + 1;) {
        if (!paired[k]) {
          lo = k;
          break;
        }
      }
      if (hi >= list.size() || lo == list.size()) break;

      // Try lo, then the entries preceding lo on the criticality list
      // ("combine ph with the process preceding pl").
      std::size_t chosen = list.size();
      for (std::size_t k = lo; k > hi; --k) {
        if (paired[k]) continue;
        if (can_combine(partition, list[hi], list[k])) {
          chosen = k;
          break;
        }
      }
      if (chosen == list.size()) {
        // hi pairs with nothing this round; it stays as-is.
        paired[hi] = true;  // consumed, unpaired
        continue;
      }
      paired[hi] = paired[chosen] = true;
      pairs.emplace_back(hi, chosen);
      if (options_.log_steps) {
        steps.push_back("round " + std::to_string(round) + ": pair " +
                        join_names(*sw_, groups[list[hi]]) + " + " +
                        join_names(*sw_, groups[list[chosen]]));
      }
    }

    // Narrated replicate resolution: if exactly two clusters remain
    // unpaired and incompatible, dissolve the last formed pair and re-pair
    // crosswise.
    std::vector<std::size_t> leftover;
    for (std::size_t k = 0; k < list.size(); ++k) {
      bool in_pair = false;
      for (const auto& [a, b] : pairs) {
        if (k == a || k == b) in_pair = true;
      }
      if (!in_pair) leftover.push_back(k);
    }
    if (leftover.size() == 2 && !pairs.empty() &&
        !can_combine(partition, list[leftover[0]], list[leftover[1]])) {
      const auto [ph, pl] = pairs.back();
      const std::size_t a = leftover[0], b = leftover[1];
      auto try_resolution = [&](std::size_t x, std::size_t y) {
        // (ph with x) and (y with pl)
        if (can_combine(partition, list[ph], list[x]) &&
            can_combine(partition, list[y], list[pl])) {
          pairs.pop_back();
          pairs.emplace_back(ph, x);
          pairs.emplace_back(y, pl);
          if (options_.log_steps) {
            steps.push_back(
                "round " + std::to_string(round) + ": conflict between " +
                join_names(*sw_, groups[list[a]]) + " and " +
                join_names(*sw_, groups[list[b]]) +
                " resolved by dissolving pair (" +
                join_names(*sw_, groups[list[ph]]) + "," +
                join_names(*sw_, groups[list[pl]]) + ")");
          }
          return true;
        }
        return false;
      };
      if (!try_resolution(b, a)) (void)try_resolution(a, b);
    }

    if (pairs.empty()) {
      throw Infeasible(
          "criticality pairing: no combinable pair in round " +
          std::to_string(round));
    }

    // Merge pairs (in formation order) until the target count is reached.
    std::size_t merges_allowed =
        partition.cluster_count - options_.target_clusters;
    for (const auto& [a, b] : pairs) {
      if (merges_allowed == 0) break;
      partition.merge(groups[list[a]].front(), groups[list[b]].front());
      --merges_allowed;
    }
  }
  return finish(std::move(partition), std::move(steps));
}

ClusteringResult ClusterEngine::timing_ordered(OrderKey key,
                                               std::size_t max_per_cluster) {
  const std::size_t n = sw_->node_count();
  const std::size_t cap =
      max_per_cluster > 0
          ? max_per_cluster
          : (n + options_.target_clusters - 1) / options_.target_clusters;

  std::vector<graph::NodeIndex> order(n);
  for (std::size_t v = 0; v < n; ++v) {
    order[v] = static_cast<graph::NodeIndex>(v);
  }
  std::sort(order.begin(), order.end(),
            [&](graph::NodeIndex a, graph::NodeIndex b) {
              const SwNode& na = sw_->node(a);
              const SwNode& nb = sw_->node(b);
              switch (key) {
                case OrderKey::kCriticality:
                  if (na.attributes.criticality != nb.attributes.criticality)
                    return na.attributes.criticality >
                           nb.attributes.criticality;
                  break;
                case OrderKey::kEst: {
                  const auto ea = na.attributes.timing
                                      ? na.attributes.timing->est
                                      : Instant::distant_future();
                  const auto eb = nb.attributes.timing
                                      ? nb.attributes.timing->est
                                      : Instant::distant_future();
                  if (ea != eb) return ea < eb;
                  break;
                }
                case OrderKey::kUrgency: {
                  const double ua = core::timing_urgency(na.attributes);
                  const double ub = core::timing_urgency(nb.attributes);
                  if (ua != ub) return ua > ub;
                  break;
                }
              }
              return a < b;
            });

  std::vector<std::vector<graph::NodeIndex>> bins;
  std::vector<std::string> steps;
  for (const graph::NodeIndex v : order) {
    bool placed = false;
    for (std::size_t b = 0; b < bins.size(); ++b) {
      if (bins[b].size() < cap &&
          combinable(bins[b], {&v, 1})) {
        bins[b].push_back(v);
        if (options_.log_steps) {
          steps.push_back("place " + sw_->node(v).name + " -> bin " +
                          std::to_string(b + 1));
        }
        placed = true;
        break;
      }
    }
    if (!placed) {
      if (bins.size() >= options_.target_clusters) {
        throw Infeasible("timing-ordered packing: " + sw_->node(v).name +
                         " fits no bin and the bin budget is exhausted");
      }
      bins.push_back({v});
      if (options_.log_steps) {
        steps.push_back("open bin " + std::to_string(bins.size()) + " with " +
                        sw_->node(v).name);
      }
    }
  }
  return finish(partition_from_groups(n, bins), std::move(steps));
}

}  // namespace fcm::mapping
