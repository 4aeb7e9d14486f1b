// Aggregators Location (§3.3): host selection by Mem_avl, the N_ah cap,
// Mem_min-driven remerging, and the ablation switches.
#include <gtest/gtest.h>

#include "core/aggregator_location.h"

namespace mcio::core {
namespace {

using util::Extent;

struct Fixture {
  // 4 ranks on 4 nodes, each owning a quarter of [0, 400).
  std::vector<Extent> bounds = {{0, 100}, {100, 100}, {200, 100},
                                {300, 100}};
  std::vector<int> nodes = {0, 1, 2, 3};
  std::vector<std::uint64_t> avail = {50, 80, 20, 60};
  std::vector<int> aggs = {0, 0, 0, 0};

  LocationInput input() {
    LocationInput in;
    in.rank_bounds = bounds;
    in.rank_nodes = nodes;
    in.node_available = &avail;
    in.node_aggregators = &aggs;
    in.mem_min = 10;
    in.msg_ind = 100;
    in.n_ah = 2;
    return in;
  }
};

TEST(AggregatorLocation, PicksHostsTouchingTheDomain) {
  Fixture f;
  PartitionTree tree(Extent{0, 400});
  tree.bisect_weighted(std::vector<double>(4, 1.0));
  const auto domains = locate_aggregators(tree, f.input());
  ASSERT_EQ(domains.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    // Each 100-byte domain is touched by exactly one rank, so that rank's
    // host is the only candidate.
    EXPECT_EQ(domains[i].aggregator, static_cast<int>(i));
    EXPECT_EQ(domains[i].extent, (Extent{i * 100, 100}));
    EXPECT_GT(domains[i].buffer_bytes, 0u);
  }
}

TEST(AggregatorLocation, MaxMemAvlWinsWhenShared) {
  Fixture f;
  // Every rank touches everything: one domain, best host = node 1 (80).
  f.bounds = {{0, 400}, {0, 400}, {0, 400}, {0, 400}};
  PartitionTree tree(Extent{0, 400});
  const auto domains = locate_aggregators(tree, f.input());
  ASSERT_EQ(domains.size(), 1u);
  EXPECT_EQ(domains[0].aggregator, 1);
}

TEST(AggregatorLocation, MemMinTriggersRemerge) {
  Fixture f;
  f.avail = {50, 4, 4, 60};  // nodes 1 and 2 below Mem_min = 10
  PartitionTree tree(Extent{0, 400});
  tree.bisect_weighted(std::vector<double>(4, 1.0));
  const auto domains = locate_aggregators(tree, f.input());
  // Domains over nodes 1/2's data merge toward qualified hosts; all data
  // remains covered and no aggregator sits on a disqualified node unless
  // forced.
  std::uint64_t covered = 0;
  for (const auto& d : domains) {
    covered += d.extent.len;
    const int node = f.nodes[static_cast<std::size_t>(d.aggregator)];
    EXPECT_TRUE(node == 0 || node == 3) << "placed on node " << node;
  }
  EXPECT_EQ(covered, 400u);
  EXPECT_LT(domains.size(), 4u);
}

TEST(AggregatorLocation, NahCapRespectedThenRelaxed) {
  Fixture f;
  // Only rank 0's node has data-touching candidates for all domains.
  f.bounds = {{0, 400}, {0, 0}, {0, 0}, {0, 0}};
  auto in = f.input();
  in.n_ah = 2;
  in.remerging = false;  // exhaust the only host instead of merging
  PartitionTree tree(Extent{0, 400});
  tree.bisect_weighted(std::vector<double>(4, 1.0));
  const auto domains = locate_aggregators(tree, in);
  ASSERT_EQ(domains.size(), 4u);
  for (const auto& d : domains) {
    EXPECT_EQ(d.aggregator, 0);  // only candidate, beyond the cap
  }
  EXPECT_EQ(f.aggs[0], 4);  // relax_cap path counted them all
}

TEST(AggregatorLocation, HoleDomainsDropped) {
  Fixture f;
  f.bounds = {{0, 100}, {0, 0}, {0, 0}, {300, 100}};
  auto in = f.input();
  in.remerging = false;  // keep holes as holes
  PartitionTree tree(Extent{0, 400});
  tree.bisect_weighted(std::vector<double>(4, 1.0));
  const auto domains = locate_aggregators(tree, in);
  ASSERT_EQ(domains.size(), 2u);
  EXPECT_EQ(domains[0].extent, (Extent{0, 100}));
  EXPECT_EQ(domains[1].extent, (Extent{300, 100}));
}

TEST(AggregatorLocation, MemoryBlindIgnoresAvailability) {
  Fixture f;
  f.bounds = {{0, 400}, {0, 400}, {0, 400}, {0, 400}};
  f.avail = {1, 1000, 1, 1};
  auto in = f.input();
  in.memory_aware = false;
  PartitionTree tree(Extent{0, 400});
  const auto domains = locate_aggregators(tree, in);
  ASSERT_EQ(domains.size(), 1u);
  // First related host (lowest node id), not the 1000-byte one.
  EXPECT_EQ(domains[0].aggregator, 0);
  // Buffer comes from msg_ind, not availability.
  EXPECT_EQ(domains[0].buffer_bytes, 100u);
}

TEST(AggregatorLocation, BufferAlignment) {
  Fixture f;
  f.avail = {130, 130, 130, 130};
  auto in = f.input();
  in.buffer_align = 64;
  in.msg_ind = 1000;
  in.remerging = false;
  PartitionTree tree(Extent{0, 400});
  tree.bisect_weighted(std::vector<double>(4, 1.0));
  const auto domains = locate_aggregators(tree, in);
  for (const auto& d : domains) {
    EXPECT_EQ(d.buffer_bytes % 64, 0u);
  }
}

TEST(AggregatorLocation, RoundRobinAcrossHostProcesses) {
  // Two ranks on the same node; the node hosts two domains: both ranks
  // should serve.
  LocationInput in;
  std::vector<Extent> bounds = {{0, 200}, {0, 200}};
  std::vector<int> nodes = {5, 5};
  std::vector<std::uint64_t> avail(6, 100);
  std::vector<int> aggs(6, 0);
  in.rank_bounds = bounds;
  in.rank_nodes = nodes;
  in.node_available = &avail;
  in.node_aggregators = &aggs;
  in.mem_min = 1;
  in.msg_ind = 100;
  in.n_ah = 2;
  in.remerging = false;  // both slots on the node must be used
  PartitionTree tree(Extent{0, 200});
  tree.bisect_weighted(std::vector<double>(2, 1.0));
  const auto domains = locate_aggregators(tree, in);
  ASSERT_EQ(domains.size(), 2u);
  EXPECT_EQ(domains[0].aggregator, 0);
  EXPECT_EQ(domains[1].aggregator, 1);
}

TEST(AggregatorLocation, SeatRoundRobinsAlignsAndUndoes) {
  // Seats on node 1 (80 bytes free), whose two ranks take turns. Buffers
  // above one 64-byte stripe round down to the grid and are charged
  // until the availability floors at 0; undoing a seat gives back its
  // count and its buffer.
  Fixture f;
  auto in = f.input();
  in.buffer_align = 64;
  const std::vector<int> ranks = {4, 7};
  const io::FileDomain d0 =
      seat_aggregator(in, 1, ranks, io::FileDomain{{0, 100}, -1, 100});
  EXPECT_EQ(d0.aggregator, 4);
  EXPECT_EQ(d0.buffer_bytes, 64u);
  EXPECT_EQ(f.aggs[1], 1);
  EXPECT_EQ(f.avail[1], 16u);
  EXPECT_EQ(seat_aggregator(in, 1, {}, d0, /*undo=*/true), d0);
  EXPECT_EQ(f.aggs[1], 0);
  EXPECT_EQ(f.avail[1], 80u);

  EXPECT_EQ(seat_aggregator(in, 1, ranks, io::FileDomain{{0, 100}, -1, 100}),
            d0);
  const io::FileDomain d1 =
      seat_aggregator(in, 1, ranks, io::FileDomain{{100, 40}, -1, 40});
  EXPECT_EQ(d1.aggregator, 7);
  EXPECT_EQ(d1.buffer_bytes, 40u);  // not above one stripe: kept
  EXPECT_EQ(f.avail[1], 0u);
  const io::FileDomain d2 =
      seat_aggregator(in, 1, ranks, io::FileDomain{{140, 200}, -1, 200});
  EXPECT_EQ(d2.aggregator, 4);
  EXPECT_EQ(d2.buffer_bytes, 192u);
  EXPECT_EQ(f.aggs[1], 3);
  EXPECT_EQ(f.avail[1], 0u);
  EXPECT_EQ(f.aggs[0] + f.aggs[2] + f.aggs[3], 0);
}

}  // namespace
}  // namespace mcio::core
