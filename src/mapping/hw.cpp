#include "mapping/hw.h"

#include <algorithm>

#include "common/error.h"

namespace fcm::mapping {

namespace {
/// First link of `links` (ascending) whose neighbour is not below `to`.
std::vector<HwLink>::const_iterator lower_link(const std::vector<HwLink>& links,
                                               std::uint32_t to) {
  return std::lower_bound(
      links.begin(), links.end(), to,
      [](const HwLink& link, std::uint32_t v) { return link.to < v; });
}
}  // namespace

HwGraph HwGraph::complete(int n, double link_bandwidth) {
  FCM_REQUIRE(n >= 1, "a platform needs at least one node");
  HwGraph hw;
  for (int i = 0; i < n; ++i) {
    hw.add_node("hw" + std::to_string(i + 1));
    hw.links_.back().reserve(static_cast<std::size_t>(n - 1));
  }
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      hw.add_link(HwNodeId(static_cast<std::uint32_t>(i)),
                  HwNodeId(static_cast<std::uint32_t>(j)), link_bandwidth);
    }
  }
  return hw;
}

HwNodeId HwGraph::add_node(std::string name, double memory,
                           std::set<std::string> resources) {
  HwNode node;
  node.id = HwNodeId(static_cast<std::uint32_t>(nodes_.size()));
  node.name = std::move(name);
  node.memory = memory;
  node.resources = std::move(resources);
  nodes_.push_back(std::move(node));
  links_.emplace_back();
  return nodes_.back().id;
}

void HwGraph::add_link(HwNodeId a, HwNodeId b, double bandwidth) {
  FCM_REQUIRE(bandwidth > 0.0, "link bandwidth must be positive");
  FCM_REQUIRE(a.value() < nodes_.size() && b.value() < nodes_.size(),
              "unknown HW node id");
  FCM_REQUIRE(a != b, "a HW node cannot link to itself");
  std::vector<HwLink>& from_a = links_[a.value()];
  std::vector<HwLink>& from_b = links_[b.value()];
  const auto at_a = lower_link(from_a, b.value());
  FCM_REQUIRE(at_a == from_a.end() || at_a->to != b.value(),
              "duplicate link " + nodes_[a.value()].name + " - " +
                  nodes_[b.value()].name);
  from_a.insert(at_a, HwLink{b.value(), bandwidth});
  from_b.insert(lower_link(from_b, a.value()), HwLink{a.value(), bandwidth});
}

const HwNode& HwGraph::node(HwNodeId id) const {
  FCM_REQUIRE(id.valid() && id.value() < nodes_.size(),
              "unknown HW node id");
  return nodes_[id.value()];
}

const std::vector<HwLink>& HwGraph::links(HwNodeId id) const {
  FCM_REQUIRE(id.valid() && id.value() < nodes_.size(),
              "unknown HW node id");
  return links_[id.value()];
}

bool HwGraph::linked(HwNodeId a, HwNodeId b) const {
  if (a.value() >= links_.size()) return false;
  const std::vector<HwLink>& links = links_[a.value()];
  const auto it = lower_link(links, b.value());
  return it != links.end() && it->to == b.value();
}

void HwGraph::bfs(std::uint32_t source, int* dist,
                  std::vector<std::uint32_t>& queue) const {
  const std::size_t n = nodes_.size();
  std::fill(dist, dist + n, -1);
  dist[source] = 0;
  queue.assign(1, source);
  for (std::size_t head = 0; head < queue.size() && queue.size() < n;
       ++head) {
    const std::uint32_t v = queue[head];
    for (const HwLink& link : links_[v]) {
      if (dist[link.to] >= 0) continue;
      dist[link.to] = dist[v] + 1;
      queue.push_back(link.to);
    }
  }
}

void HwGraph::throw_disconnected(HwNodeId a, HwNodeId b) const {
  throw Infeasible("HW nodes " + node(a).name + " and " + node(b).name +
                   " are not connected");
}

int HwGraph::hop_distance(HwNodeId a, HwNodeId b) const {
  FCM_REQUIRE(a.value() < nodes_.size() && b.value() < nodes_.size(),
              "unknown HW node id");
  std::vector<int> dist(nodes_.size());
  std::vector<std::uint32_t> queue;
  bfs(a.value(), dist.data(), queue);
  if (dist[b.value()] < 0) throw_disconnected(a, b);
  return dist[b.value()];
}

bool HwGraph::strongly_connected() const {
  // Links are symmetric, so one BFS that reaches every node proves it.
  if (nodes_.empty()) return true;
  std::vector<int> dist(nodes_.size());
  std::vector<std::uint32_t> queue;
  bfs(0, dist.data(), queue);
  return queue.size() == nodes_.size();
}

HopTable::HopTable(const HwGraph& hw)
    : hw_(hw), n_(hw.node_count()), hops_(n_ * n_) {
  std::vector<std::uint32_t> queue;
  queue.reserve(n_);
  for (std::uint32_t source = 0; source < n_; ++source) {
    hw.bfs(source, hops_.data() + source * n_, queue);
  }
}

}  // namespace fcm::mapping
