// Aggregation Group Division (§3.1), including the Figure 4 example.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/group_division.h"
#include "testing.h"
#include "util/rng.h"

namespace mcio::core {
namespace {

using util::Extent;

TEST(GroupDivision, SerialDetection) {
  EXPECT_TRUE(is_serial_distribution({{0, 10}, {10, 10}, {25, 5}}));
  EXPECT_TRUE(is_serial_distribution({{25, 5}, {0, 10}, {10, 10}}));
  EXPECT_FALSE(is_serial_distribution({{0, 10}, {5, 10}}));
  EXPECT_TRUE(is_serial_distribution({{0, 10}, {0, 0}, {10, 5}}));
  EXPECT_TRUE(is_serial_distribution({}));
}

TEST(GroupDivision, Figure4Example) {
  // Figure 4: 9 processes on 3 compute nodes, serially distributed data.
  // With Msg_group below a node's worth of data, group one is extended to
  // the ending offset of the last process on node one, so no node hosts
  // aggregators for two groups.
  GroupDivisionInput in;
  for (int r = 0; r < 9; ++r) {
    in.rank_bounds.push_back(
        Extent{static_cast<std::uint64_t>(r) * 100, 100});
    in.rank_nodes.push_back(r / 3);
  }
  in.msg_group = 150;  // reached mid-node: must extend to node boundary
  const auto groups = divide_groups(in);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].region, (Extent{0, 300}));
  EXPECT_EQ(groups[1].region, (Extent{300, 300}));
  EXPECT_EQ(groups[2].region, (Extent{600, 300}));
  EXPECT_EQ(groups[0].ranks, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(groups[1].ranks, (std::vector<int>{3, 4, 5}));
  EXPECT_EQ(groups[2].ranks, (std::vector<int>{6, 7, 8}));
}

TEST(GroupDivision, SerialLargeMsgGroupSpansNodes) {
  GroupDivisionInput in;
  for (int r = 0; r < 9; ++r) {
    in.rank_bounds.push_back(
        Extent{static_cast<std::uint64_t>(r) * 100, 100});
    in.rank_nodes.push_back(r / 3);
  }
  in.msg_group = 550;  // cut lands inside node 2 -> extend to its end
  const auto groups = divide_groups(in);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].region, (Extent{0, 600}));
  EXPECT_EQ(groups[1].region, (Extent{600, 300}));
}

TEST(GroupDivision, SerialOneGroupWhenMsgGroupHuge) {
  GroupDivisionInput in;
  for (int r = 0; r < 6; ++r) {
    in.rank_bounds.push_back(
        Extent{static_cast<std::uint64_t>(r) * 10, 10});
    in.rank_nodes.push_back(r / 2);
  }
  in.msg_group = 1 << 30;
  const auto groups = divide_groups(in);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].region, (Extent{0, 60}));
  EXPECT_EQ(groups[0].ranks.size(), 6u);
}

TEST(GroupDivision, SerialRanksOutOfOffsetOrder) {
  // Ranks' regions in reverse rank order: the linearization walks by
  // offset, not by rank id.
  GroupDivisionInput in;
  for (int r = 0; r < 4; ++r) {
    in.rank_bounds.push_back(
        Extent{static_cast<std::uint64_t>(3 - r) * 100, 100});
    in.rank_nodes.push_back(r / 2);
  }
  in.msg_group = 150;
  const auto groups = divide_groups(in);
  ASSERT_GE(groups.size(), 1u);
  // Coverage: regions are disjoint, sorted, and cover all data.
  std::uint64_t pos = 0;
  for (const auto& g : groups) {
    EXPECT_GE(g.region.offset, pos);
    pos = g.region.end();
  }
  EXPECT_EQ(pos, 400u);
}

TEST(GroupDivision, InterleavedFallbackPartitionsRegionAndNodes) {
  GroupDivisionInput in;
  // 8 ranks on 4 nodes, everyone touching the whole file (interleaved).
  for (int r = 0; r < 8; ++r) {
    in.rank_bounds.push_back(
        Extent{static_cast<std::uint64_t>(r), 1000});
    in.rank_nodes.push_back(r / 2);
  }
  in.msg_group = 300;
  const auto groups = divide_groups(in);
  ASSERT_GE(groups.size(), 2u);
  ASSERT_LE(groups.size(), 4u);  // capped at node count
  // Regions tile the span; node shares are disjoint.
  std::uint64_t pos = 0;
  std::set<int> seen_ranks;
  for (const auto& g : groups) {
    EXPECT_EQ(g.region.offset, pos);
    pos = g.region.end();
    for (const int r : g.ranks) {
      EXPECT_TRUE(seen_ranks.insert(r).second)
          << "rank " << r << " in two groups";
    }
  }
  EXPECT_EQ(pos, 1007u);
}

TEST(GroupDivision, InterleavedWeightedRegions) {
  GroupDivisionInput in;
  for (int r = 0; r < 4; ++r) {
    in.rank_bounds.push_back(Extent{0, 1000});
    in.rank_nodes.push_back(r);  // one rank per node
  }
  in.msg_group = 250;  // 4 groups over 4 nodes
  in.node_weights = {1.0, 1.0, 3.0, 3.0};
  const auto groups = divide_groups(in);
  ASSERT_EQ(groups.size(), 4u);
  // Heavier nodes get proportionally bigger regions.
  EXPECT_LT(groups[0].region.len, groups[2].region.len);
  EXPECT_NEAR(static_cast<double>(groups[0].region.len), 125.0, 2.0);
  EXPECT_NEAR(static_cast<double>(groups[2].region.len), 375.0, 2.0);
}

TEST(GroupDivision, EmptyInputs) {
  GroupDivisionInput in;
  in.msg_group = 100;
  EXPECT_TRUE(divide_groups(in).empty());
  in.rank_bounds = {{0, 0}, {0, 0}};
  in.rank_nodes = {0, 1};
  EXPECT_TRUE(divide_groups(in).empty());
}

TEST(GroupDivision, RanksWithoutDataExcluded) {
  GroupDivisionInput in;
  in.rank_bounds = {{0, 100}, {0, 0}, {100, 100}};
  in.rank_nodes = {0, 0, 1};
  in.msg_group = 1000;
  const auto groups = divide_groups(in);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].ranks, (std::vector<int>{0, 2}));
}

TEST(GroupDivision, ZeroMsgGroupMeansNoDivision) {
  // msg_group == 0 must yield exactly one group in both code paths, not
  // crash or divide by zero.
  GroupDivisionInput serial;
  for (int r = 0; r < 6; ++r) {
    serial.rank_bounds.push_back(
        Extent{static_cast<std::uint64_t>(r) * 100, 100});
    serial.rank_nodes.push_back(r / 2);
  }
  serial.msg_group = 0;
  auto groups = divide_groups(serial);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].region, (Extent{0, 600}));
  EXPECT_EQ(groups[0].ranks.size(), 6u);

  GroupDivisionInput inter;
  for (int r = 0; r < 6; ++r) {
    inter.rank_bounds.push_back(Extent{static_cast<std::uint64_t>(r), 600});
    inter.rank_nodes.push_back(r / 2);
  }
  inter.msg_group = 0;
  groups = divide_groups(inter);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].ranks.size(), 6u);
}

TEST(GroupDivision, InterleavedGroupCountCappedAtNodes) {
  // Per-node data far above Msg_group: the chunk count must be clamped
  // to the number of nodes, never producing empty or unstaffed groups.
  GroupDivisionInput in;
  for (int r = 0; r < 4; ++r) {
    in.rank_bounds.push_back(Extent{static_cast<std::uint64_t>(r), 100000});
    in.rank_nodes.push_back(r / 2);  // 2 nodes
  }
  in.msg_group = 64;  // would ask for ~1500 groups
  const auto groups = divide_groups(in);
  ASSERT_EQ(groups.size(), 2u);
  for (const auto& g : groups) {
    EXPECT_FALSE(g.region.empty());
    EXPECT_FALSE(g.ranks.empty());
  }
}

TEST(GroupDivision, SerialCutNeverSplitsNonContiguousNode) {
  // Node 0's ranks are NOT adjacent in offset order (0, 2, 4); a cut
  // after any prefix containing an open node would split the node across
  // groups. Only the closed-prefix positions are legal boundaries.
  GroupDivisionInput in;
  in.rank_bounds = {{0, 100}, {100, 100}, {200, 100},
                    {300, 100}, {400, 100}, {500, 100}};
  in.rank_nodes = {0, 1, 0, 1, 0, 1};
  in.msg_group = 150;  // reached long before node 0 closes at rank 4
  const auto groups = divide_groups(in);
  for (const auto& g : groups) {
    for (const int r : g.ranks) {
      const int node = in.rank_nodes[static_cast<std::size_t>(r)];
      for (const auto& other : groups) {
        if (&other == &g) continue;
        for (const int o : other.ranks) {
          EXPECT_NE(in.rank_nodes[static_cast<std::size_t>(o)], node)
              << "node " << node << " split across groups";
        }
      }
    }
  }
  // With this layout some node stays open at every interior position
  // (node 0 until 4, node 1 until 5), so the only legal outcome is a
  // single group despite Msg_group being reached early.
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].ranks.size(), 6u);
}

TEST(GroupDivision, SerialCutAtFirstClosedPrefix) {
  // Node 0 closes at position 2 (ranks 0, 2 interleave with node 1's
  // rank 1), node 1 closes at 3: the first legal cut is after position
  // 3, not after position 1 where Msg_group is first reached.
  GroupDivisionInput in;
  in.rank_bounds = {{0, 100}, {100, 100}, {200, 100},
                    {300, 100}, {400, 100}, {500, 100}};
  in.rank_nodes = {0, 1, 0, 1, 2, 2};
  in.msg_group = 150;
  const auto groups = divide_groups(in);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].ranks, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(groups[1].ranks, (std::vector<int>{4, 5}));
  EXPECT_EQ(groups[0].region, (Extent{0, 400}));
  EXPECT_EQ(groups[1].region, (Extent{400, 200}));
}

/// The original set-based aggregate-view division: a std::set share per
/// group and a rescan of every rank. Kept here as the reference the O(P)
/// divide_interleaved must match exactly.
std::vector<AggregationGroup> reference_interleaved(
    const GroupDivisionInput& in) {
  std::uint64_t gmin = UINT64_MAX;
  std::uint64_t gmax = 0;
  std::set<int> node_set;
  for (std::size_t r = 0; r < in.rank_bounds.size(); ++r) {
    const Extent& b = in.rank_bounds[r];
    if (b.empty()) continue;
    gmin = std::min(gmin, b.offset);
    gmax = std::max(gmax, b.end());
    node_set.insert(in.rank_nodes[r]);
  }
  const std::uint64_t span = gmax - gmin;
  const std::vector<int> nodes(node_set.begin(), node_set.end());
  const auto num_nodes = static_cast<std::uint64_t>(nodes.size());
  std::uint64_t g =
      in.msg_group == 0 ? 1 : (span + in.msg_group - 1) / in.msg_group;
  g = std::clamp<std::uint64_t>(g, 1, std::max<std::uint64_t>(num_nodes, 1));
  const auto weight_of = [&](int node) {
    const auto i = static_cast<std::size_t>(node);
    if (i < in.node_weights.size() && in.node_weights[i] > 0.0) {
      return in.node_weights[i];
    }
    return in.node_weights.empty() ? 1.0 : 0.0;
  };
  std::vector<AggregationGroup> groups;
  std::uint64_t pos = gmin;
  double total_weight = 0.0;
  for (const int n : nodes) total_weight += weight_of(n);
  double weight_done = 0.0;
  for (std::uint64_t i = 0; i < g && pos < gmax; ++i) {
    AggregationGroup grp;
    const auto lo = static_cast<std::size_t>(i * num_nodes / g);
    const auto hi = static_cast<std::size_t>((i + 1) * num_nodes / g);
    const std::set<int> share(
        nodes.begin() + static_cast<std::ptrdiff_t>(lo),
        nodes.begin() + static_cast<std::ptrdiff_t>(hi));
    double share_weight = 0.0;
    for (const int n : share) share_weight += weight_of(n);
    std::uint64_t len;
    if (i + 1 == g || total_weight <= 0.0) {
      len = gmax - pos;
    } else {
      weight_done += share_weight;
      const std::uint64_t end_target =
          gmin + static_cast<std::uint64_t>(
                     static_cast<double>(span) *
                     (weight_done / std::max(total_weight, 1e-12)));
      len = end_target > pos ? end_target - pos : 0;
      if (in.align > 1 && len > 0) {
        len = (len + in.align / 2) / in.align * in.align;
      }
      len = std::min(len, gmax - pos);
    }
    grp.region = Extent{pos, len};
    pos += len;
    for (std::size_t r = 0; r < in.rank_bounds.size(); ++r) {
      if (!in.rank_bounds[r].empty() && share.count(in.rank_nodes[r]) > 0) {
        grp.ranks.push_back(static_cast<int>(r));
      }
    }
    if (!grp.region.empty()) groups.push_back(std::move(grp));
  }
  if (!groups.empty() && pos < gmax) {
    groups.back().region.len += gmax - pos;
  }
  return groups;
}

TEST(GroupDivision, InterleavedMatchesReferenceOnRandomInputs) {
  util::Rng rng(mcio::testing::test_seed() ^ 0x6d1f);
  for (int trial = 0; trial < 400; ++trial) {
    GroupDivisionInput in;
    const auto nranks = static_cast<int>(rng.uniform_int(1, 64));
    const auto nnodes = static_cast<int>(rng.uniform_int(1, 16));
    for (int r = 0; r < nranks; ++r) {
      // Arbitrary node maps: ranks of a node need not be contiguous.
      in.rank_nodes.push_back(static_cast<int>(rng.uniform_int(0, nnodes - 1)));
      if (rng.uniform_double() < 0.2) {
        in.rank_bounds.push_back(Extent{});
        continue;
      }
      in.rank_bounds.push_back(Extent{rng.uniform_u64(1u << 20),
                                      1 + rng.uniform_u64(1u << 16)});
    }
    const std::uint64_t msg_groups[] = {0, 1, 4096, 1u << 16, 1u << 20};
    in.msg_group = msg_groups[rng.uniform_u64(5)];
    const std::uint64_t aligns[] = {0, 1, 512, 4096};
    in.align = aligns[rng.uniform_u64(4)];
    if (rng.uniform_double() < 0.6) {
      in.node_weights.resize(static_cast<std::size_t>(
          rng.uniform_int(0, nnodes + 2)));
      for (double& w : in.node_weights) {
        w = rng.uniform_double() < 0.3 ? 0.0 : rng.uniform_double(0.1, 8.0);
      }
    }
    const auto got = divide_interleaved(in);
    const auto want = reference_interleaved(in);
    ASSERT_EQ(got.size(), want.size()) << "trial " << trial;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].region, want[i].region)
          << "trial " << trial << " group " << i;
      EXPECT_EQ(got[i].ranks, want[i].ranks)
          << "trial " << trial << " group " << i;
    }
  }
}

}  // namespace
}  // namespace mcio::core
