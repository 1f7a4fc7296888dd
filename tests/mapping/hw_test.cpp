#include "mapping/hw.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/error.h"
#include "mapping/replanner.h"

namespace fcm::mapping {
namespace {

TEST(HwGraph, CompleteNetworkIsStronglyConnected) {
  const HwGraph hw = HwGraph::complete(6);
  EXPECT_EQ(hw.node_count(), 6u);
  EXPECT_TRUE(hw.strongly_connected());
  for (std::uint32_t i = 0; i < 6; ++i) {
    for (std::uint32_t j = 0; j < 6; ++j) {
      if (i == j) continue;
      EXPECT_TRUE(hw.linked(HwNodeId(i), HwNodeId(j)));
      EXPECT_EQ(hw.hop_distance(HwNodeId(i), HwNodeId(j)), 1);
    }
  }
}

TEST(HwGraph, SingleNodePlatform) {
  const HwGraph hw = HwGraph::complete(1);
  EXPECT_EQ(hw.node_count(), 1u);
  EXPECT_TRUE(hw.strongly_connected());
  EXPECT_EQ(hw.hop_distance(HwNodeId(0), HwNodeId(0)), 0);
}

TEST(HwGraph, RejectsEmptyPlatform) {
  EXPECT_THROW(HwGraph::complete(0), InvalidArgument);
}

TEST(HwGraph, LineTopologyHopDistances) {
  HwGraph hw;
  const HwNodeId a = hw.add_node("a");
  const HwNodeId b = hw.add_node("b");
  const HwNodeId c = hw.add_node("c");
  hw.add_link(a, b, 1.0);
  hw.add_link(b, c, 1.0);
  EXPECT_EQ(hw.hop_distance(a, c), 2);
  EXPECT_EQ(hw.hop_distance(a, b), 1);
  EXPECT_TRUE(hw.strongly_connected());
}

TEST(HwGraph, DisconnectedDistanceThrows) {
  HwGraph hw;
  const HwNodeId a = hw.add_node("a");
  const HwNodeId b = hw.add_node("b");
  EXPECT_THROW((void)hw.hop_distance(a, b), Infeasible);
  EXPECT_FALSE(hw.strongly_connected());
}

TEST(HwGraph, NodeResourcesAndMemory) {
  HwGraph hw;
  const HwNodeId a = hw.add_node("io-node", 128.0, {"sensor-bus", "gps"});
  EXPECT_EQ(hw.node(a).memory, 128.0);
  EXPECT_TRUE(hw.node(a).resources.contains("sensor-bus"));
  EXPECT_FALSE(hw.node(a).resources.contains("radar"));
}

TEST(HwGraph, RejectsNonPositiveBandwidth) {
  HwGraph hw;
  const HwNodeId a = hw.add_node("a");
  const HwNodeId b = hw.add_node("b");
  EXPECT_THROW(hw.add_link(a, b, 0.0), InvalidArgument);
}

TEST(HwGraph, UnknownNodeThrows) {
  const HwGraph hw = HwGraph::complete(2);
  EXPECT_THROW((void)hw.node(HwNodeId(9)), InvalidArgument);
  EXPECT_THROW((void)hw.links(HwNodeId(9)), InvalidArgument);
  EXPECT_FALSE(hw.linked(HwNodeId(9), HwNodeId(0)));
}

TEST(HwGraph, AddLinkRejectsMalformedLinks) {
  HwGraph hw;
  const HwNodeId a = hw.add_node("a");
  const HwNodeId b = hw.add_node("b");
  hw.add_link(a, b, 2.0);
  EXPECT_THROW(hw.add_link(a, b, -1.0), InvalidArgument);        // bandwidth
  EXPECT_THROW(hw.add_link(a, a, 1.0), InvalidArgument);         // self-link
  EXPECT_THROW(hw.add_link(a, b, 1.0), InvalidArgument);         // duplicate
  EXPECT_THROW(hw.add_link(b, a, 1.0), InvalidArgument);         // either way
  EXPECT_THROW(hw.add_link(a, HwNodeId(7), 1.0), InvalidArgument);  // unknown
  EXPECT_THROW(hw.add_link(HwNodeId::invalid(), b, 1.0), InvalidArgument);
  // Rejections leave the links as they were.
  ASSERT_EQ(hw.links(a).size(), 1u);
  ASSERT_EQ(hw.links(b).size(), 1u);
  EXPECT_EQ(hw.links(a)[0].to, b.value());
  EXPECT_EQ(hw.links(b)[0].bandwidth, 2.0);
}

TEST(HwGraph, LinksAreAscendingAndSymmetric) {
  HwGraph hw;
  for (int i = 0; i < 7; ++i) hw.add_node("n" + std::to_string(i));
  // Inserted out of order, and from either end.
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> links = {
      {5, 2}, {0, 6}, {2, 0}, {3, 2}, {6, 5}, {1, 2}, {4, 0}, {2, 6}};
  double bandwidth = 1.0;
  for (const auto& [a, b] : links) {
    hw.add_link(HwNodeId(a), HwNodeId(b), bandwidth);
    bandwidth += 1.0;
  }
  std::size_t ends = 0;
  for (const HwNode& node : hw.nodes()) {
    const std::vector<HwLink>& out = hw.links(node.id);
    ends += out.size();
    for (std::size_t i = 1; i < out.size(); ++i) {
      EXPECT_LT(out[i - 1].to, out[i].to) << node.name;
    }
    for (const HwLink& link : out) {
      EXPECT_TRUE(hw.linked(node.id, HwNodeId(link.to)));
      const std::vector<HwLink>& back = hw.links(HwNodeId(link.to));
      const auto it = std::find_if(back.begin(), back.end(), [&](const HwLink& l) {
        return l.to == node.id.value();
      });
      ASSERT_NE(it, back.end());
      EXPECT_EQ(it->bandwidth, link.bandwidth);
    }
  }
  EXPECT_EQ(ends, 2 * links.size());
  EXPECT_FALSE(hw.linked(HwNodeId(1), HwNodeId(3)));
  EXPECT_TRUE(hw.strongly_connected());
  EXPECT_EQ(hw.hop_distance(HwNodeId(1), HwNodeId(4)), 3);  // 1-2-0-4
}

TEST(HwGraph, CompleteNetworkLinkLists) {
  const HwGraph hw = HwGraph::complete(5, 2.5);
  for (const HwNode& node : hw.nodes()) {
    const std::vector<HwLink>& out = hw.links(node.id);
    ASSERT_EQ(out.size(), 4u);
    std::uint32_t expected = 0;
    for (const HwLink& link : out) {
      if (expected == node.id.value()) ++expected;
      EXPECT_EQ(link.to, expected++);
      EXPECT_EQ(link.bandwidth, 2.5);
    }
  }
}

TEST(HwGraph, SurvivingPlatformOnARingKeepsLinksBetweenSurvivors) {
  // Ring hw0..hw7 with per-link bandwidth 1 + i; hw2 and hw5 fail.
  HwGraph ring;
  for (int i = 0; i < 8; ++i) {
    ring.add_node("hw" + std::to_string(i), 0.0,
                  i == 3 ? std::set<std::string>{"bus"}
                         : std::set<std::string>{});
  }
  for (std::uint32_t i = 0; i < 8; ++i) {
    ring.add_link(HwNodeId(i), HwNodeId((i + 1) % 8), 1.0 + i);
  }
  std::vector<bool> dead(8, false);
  dead[2] = dead[5] = true;
  const HwGraph survivors = surviving_platform(ring, dead);

  const std::vector<std::uint32_t> orig = {0, 1, 3, 4, 6, 7};
  ASSERT_EQ(survivors.node_count(), orig.size());
  for (std::uint32_t v = 0; v < orig.size(); ++v) {
    EXPECT_EQ(survivors.node(HwNodeId(v)).name,
              "hw" + std::to_string(orig[v]));
    EXPECT_EQ(survivors.node(HwNodeId(v)).resources,
              ring.node(HwNodeId(orig[v])).resources);
  }
  for (std::uint32_t a = 0; a < orig.size(); ++a) {
    for (std::uint32_t b = 0; b < orig.size(); ++b) {
      EXPECT_EQ(survivors.linked(HwNodeId(a), HwNodeId(b)),
                ring.linked(HwNodeId(orig[a]), HwNodeId(orig[b])))
          << a << " - " << b;
    }
    for (const HwLink& link : survivors.links(HwNodeId(a))) {
      const std::uint32_t lo = std::min(orig[a], orig[link.to]);
      const std::uint32_t hi = std::max(orig[a], orig[link.to]);
      // Ring link i joins i and i + 1 (mod 8).
      const double bandwidth = lo == 0 && hi == 7 ? 8.0 : 1.0 + lo;
      EXPECT_EQ(link.bandwidth, bandwidth);
    }
  }
  // hw0-hw1, hw3-hw4 and hw6-hw7-hw0 survive; the ring is now in pieces.
  EXPECT_FALSE(survivors.strongly_connected());
  EXPECT_EQ(survivors.hop_distance(HwNodeId(1), HwNodeId(4)), 3);
}

}  // namespace
}  // namespace fcm::mapping
