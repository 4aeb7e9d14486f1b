// Partition tree: the weighted bisection (unit weights for the leaf
// search), the paper's two remerge takeover cases (Figs 5a/5b), and
// randomized invariant checks.
#include <gtest/gtest.h>

#include <vector>

#include "core/partition_tree.h"
#include "util/rng.h"

namespace mcio::core {
namespace {

using util::Extent;

TEST(PartitionTree, SingleLeafInitially) {
  PartitionTree tree(Extent{100, 1000});
  EXPECT_EQ(tree.num_leaves(), 1u);
  EXPECT_EQ(tree.extent_of(tree.root()), (Extent{100, 1000}));
  EXPECT_TRUE(tree.is_leaf(tree.root()));
  tree.check_invariants();
}

/// The leaf search's cut: ceil(len / msg_ind) unit weights.
std::vector<double> unit_weights(std::uint64_t len, std::uint64_t msg_ind) {
  return std::vector<double>((len + msg_ind - 1) / msg_ind, 1.0);
}

TEST(PartitionTree, BisectToCriterion) {
  PartitionTree tree(Extent{0, 1 << 20});
  tree.bisect_weighted(unit_weights(1 << 20, 100 << 10));  // Msg_ind
  tree.check_invariants();
  for (const int leaf : tree.leaf_ids()) {
    EXPECT_LE(tree.extent_of(leaf).len, 100u << 10);
  }
  EXPECT_EQ(tree.num_leaves(), 11u);  // ceil(1 MiB / 100 KiB)
}

TEST(PartitionTree, BisectAligned) {
  PartitionTree tree(Extent{0, 10 * 1000});
  tree.bisect_weighted(unit_weights(10 * 1000, 3000), 1024);
  tree.check_invariants();
  EXPECT_EQ(tree.num_leaves(), 4u);
  const auto leaves = tree.leaf_ids();
  for (std::size_t i = 0; i + 1 < leaves.size(); ++i) {
    EXPECT_EQ(tree.extent_of(leaves[i]).end() % 1024, 0u)
        << "interior boundary must be aligned";
  }
}

TEST(PartitionTree, RemergeCase1SiblingLeaf) {
  // Fig 5a: A leaves; its sibling B is a leaf; the parent becomes a leaf
  // that owns both regions.
  PartitionTree tree(Extent{0, 400});
  tree.bisect_weighted({1.0, 1.0});  // [0,200) [200,400)
  const auto leaves = tree.leaf_ids();
  ASSERT_EQ(leaves.size(), 2u);
  const int absorber = tree.remerge_into_neighbor(leaves[0]);
  EXPECT_EQ(absorber, tree.root());
  EXPECT_EQ(tree.num_leaves(), 1u);
  EXPECT_EQ(tree.extent_of(absorber), (Extent{0, 400}));
  tree.check_invariants();
}

TEST(PartitionTree, RemergeCase2LeftSiblingDfs) {
  // Fig 5b: A is the LEFT child; sibling B is a subtree. The DFS must
  // visit left children first, so B's leftmost leaf (adjacent to A)
  // absorbs A's region.
  PartitionTree tree(Extent{0, 400});
  tree.bisect_weighted({2.0, 1.0, 1.0});  // [0,200) | [200,300) [300,400)
  const auto leaves = tree.leaf_ids();
  ASSERT_EQ(leaves.size(), 3u);
  const Extent left_mid = tree.extent_of(leaves[1]);
  ASSERT_EQ(left_mid, (Extent{200, 100}));
  const int absorber = tree.remerge_into_neighbor(leaves[0]);
  // The absorber is the old [200,300) leaf, now [0,300).
  EXPECT_EQ(tree.extent_of(absorber), (Extent{0, 300}));
  EXPECT_EQ(tree.num_leaves(), 2u);
  tree.check_invariants();
  const auto after = tree.leaf_ids();
  EXPECT_EQ(tree.extent_of(after[0]), (Extent{0, 300}));
  EXPECT_EQ(tree.extent_of(after[1]), (Extent{300, 100}));
}

TEST(PartitionTree, RemergeCase2RightSiblingDfs) {
  // Mirror case: A is the RIGHT child; the DFS visits right children
  // first, so the sibling subtree's rightmost leaf absorbs A.
  PartitionTree tree(Extent{0, 400});
  tree.bisect_weighted({1.0, 1.0, 2.0});  // [0,100) [100,200) | [200,400)
  const auto leaves = tree.leaf_ids();
  ASSERT_EQ(leaves.size(), 3u);
  const int absorber = tree.remerge_into_neighbor(leaves[2]);
  EXPECT_EQ(tree.extent_of(absorber), (Extent{100, 300}));
  tree.check_invariants();
}

TEST(PartitionTree, RemergeOnlyLeafReturnsMinusOne) {
  PartitionTree tree(Extent{0, 10});
  EXPECT_EQ(tree.remerge_into_neighbor(tree.root()), -1);
}

TEST(PartitionTree, UnitWeightsCutNearEqualParts) {
  // Seven unit weights over 700 bytes: seven leaves of 100 bytes, give
  // or take the byte a double midpoint may truncate.
  PartitionTree tree(Extent{0, 700});
  EXPECT_EQ(tree.bisect_weighted(std::vector<double>(7, 1.0)).size(), 7u);
  tree.check_invariants();
  EXPECT_EQ(tree.num_leaves(), 7u);
  for (const int leaf : tree.leaf_ids()) {
    EXPECT_NEAR(static_cast<double>(tree.extent_of(leaf).len), 100.0, 1.0);
  }
  // On a stripe grid the midpoints round to grid points: exactly one
  // stripe each.
  constexpr std::uint64_t kStripe = 1 << 20;
  PartitionTree striped(Extent{0, 7 * kStripe});
  striped.bisect_weighted(std::vector<double>(7, 1.0), kStripe);
  ASSERT_EQ(striped.num_leaves(), 7u);
  for (const int leaf : striped.leaf_ids()) {
    EXPECT_EQ(striped.extent_of(leaf).len, kStripe);
  }
}

TEST(PartitionTree, BisectWeightedProportions) {
  PartitionTree tree(Extent{0, 1000});
  tree.bisect_weighted({1.0, 3.0, 1.0});
  tree.check_invariants();
  const auto leaves = tree.leaf_ids();
  ASSERT_EQ(leaves.size(), 3u);
  EXPECT_NEAR(static_cast<double>(tree.extent_of(leaves[0]).len), 200, 2);
  EXPECT_NEAR(static_cast<double>(tree.extent_of(leaves[1]).len), 600, 4);
  EXPECT_NEAR(static_cast<double>(tree.extent_of(leaves[2]).len), 200, 2);
}

TEST(PartitionTree, BisectWeightedAligned) {
  PartitionTree tree(Extent{0, 10 << 20});
  tree.bisect_weighted({1.0, 2.0, 1.5, 0.5}, 1 << 20);
  tree.check_invariants();
  const auto leaves = tree.leaf_ids();
  for (std::size_t i = 0; i + 1 < leaves.size(); ++i) {
    EXPECT_EQ(tree.extent_of(leaves[i]).end() % (1 << 20), 0u);
  }
}

/// Every interior leaf boundary lies on the `unit` grid and the leaves
/// cover the region left to right.
void expect_on_grid(const PartitionTree& tree, std::uint64_t unit) {
  tree.check_invariants();
  const auto leaves = tree.leaf_ids();
  for (std::size_t i = 0; i + 1 < leaves.size(); ++i) {
    EXPECT_EQ(tree.extent_of(leaves[i]).end() % unit, 0u)
        << "interior boundary " << i << " is off the grid";
  }
}

TEST(PartitionTree, BisectWeightedSkewedLeavesKeepTheirSlots) {
  // One heavy weight and three light ones over four stripes. The balanced
  // split point rounds to three stripes, which would leave three weights
  // one stripe; the grid rule moves it so every weight keeps a stripe,
  // and each leaf reports the one weight that sized it.
  constexpr std::uint64_t kStripe = 1 << 20;
  PartitionTree tree(Extent{0, 4 * kStripe});
  const auto leaves = tree.bisect_weighted({8.0, 1.0, 1.0, 1.0}, kStripe);
  expect_on_grid(tree, kStripe);
  ASSERT_EQ(leaves.size(), 4u);
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    EXPECT_EQ(leaves[i].first, i);
    EXPECT_EQ(leaves[i].last, i + 1);
    EXPECT_EQ(tree.extent_of(leaves[i].id), (Extent{i * kStripe, kStripe}));
  }
  EXPECT_EQ(tree.leaf_ids().size(), leaves.size());
}

TEST(PartitionTree, BisectWeightedNeverCutsBelowOneStripe) {
  // Five weights over an unaligned region touching three stripes: at most
  // three leaves, on the grid, whose weight ranges cover all five weights
  // in order.
  constexpr std::uint64_t kStripe = 1 << 20;
  const Extent region{kStripe / 2, 2 * kStripe};
  PartitionTree tree(region);
  const auto leaves =
      tree.bisect_weighted({1.0, 1.0, 3.0, 1.0, 1.0}, kStripe);
  expect_on_grid(tree, kStripe);
  ASSERT_EQ(leaves.size(), 3u);
  std::size_t next = 0;
  for (const auto& leaf : leaves) {
    EXPECT_EQ(leaf.first, next);
    EXPECT_GT(leaf.last, leaf.first);
    next = leaf.last;
  }
  EXPECT_EQ(next, 5u);
}

TEST(PartitionTree, UnitWeightsCapAtTheGrid) {
  // Eight unit weights over three stripes: three one-stripe leaves that
  // share the eight weights in order.
  constexpr std::uint64_t kStripe = 1 << 20;
  PartitionTree tree(Extent{0, 3 * kStripe});
  const auto leaves =
      tree.bisect_weighted(std::vector<double>(8, 1.0), kStripe);
  expect_on_grid(tree, kStripe);
  ASSERT_EQ(leaves.size(), 3u);
  std::size_t next = 0;
  for (const auto& leaf : leaves) {
    EXPECT_EQ(tree.extent_of(leaf.id).len, kStripe);
    EXPECT_EQ(leaf.first, next);
    next = leaf.last;
  }
  EXPECT_EQ(next, 8u);
  // Two unit weights over an unaligned region split on the grid, not at
  // its midpoint.
  PartitionTree shifted(Extent{kStripe / 4, kStripe});
  shifted.bisect_weighted({1.0, 1.0}, kStripe);
  expect_on_grid(shifted, kStripe);
  EXPECT_EQ(shifted.num_leaves(), 2u);
}

TEST(PartitionTree, SingleByteStaysOneLeaf) {
  PartitionTree tree(Extent{5, 1});
  const auto leaves = tree.bisect_weighted({1.0, 1.0});
  ASSERT_EQ(leaves.size(), 1u);
  EXPECT_EQ(leaves[0].id, tree.root());
  EXPECT_EQ(leaves[0].last - leaves[0].first, 2u);
  EXPECT_EQ(tree.num_leaves(), 1u);
}

class PartitionTreeProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

/// Remerges random leaves until one is left, checking the tree after
/// each takeover; the last leaf is the whole region again.
void merge_to_one_leaf(PartitionTree& tree, util::Rng& rng,
                       const Extent& region) {
  while (tree.num_leaves() > 1) {
    const auto leaves = tree.leaf_ids();
    // mcio-analyze: allow(untagged-narrowing) -- element is already an int
    const int pick = leaves[rng.uniform_u64(leaves.size())];
    const int absorber = tree.remerge_into_neighbor(pick);
    ASSERT_GE(absorber, 0);
    ASSERT_TRUE(tree.is_leaf(absorber));
    tree.check_invariants();
    ASSERT_EQ(tree.num_leaves(), leaves.size() - 1);
  }
  EXPECT_EQ(tree.extent_of(tree.leaf_ids()[0]), region);
}

TEST_P(PartitionTreeProperty, RandomSplitMergeKeepsInvariants) {
  // A random weighted bisection, on a random grid, then random remerges.
  util::Rng rng(GetParam());
  const Extent region{1000, 64 * 1024};
  PartitionTree tree(region);
  std::vector<double> weights(rng.uniform_u64(64) + 1);
  for (double& w : weights) w = rng.uniform_double(0.25, 4.0);
  const std::uint64_t align = rng.uniform_double() < 0.5 ? 512 : 0;
  const auto leaves = tree.bisect_weighted(weights, align);
  if (align != 0) expect_on_grid(tree, align);
  tree.check_invariants();
  ASSERT_EQ(tree.num_leaves(), leaves.size());
  std::size_t next = 0;
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    EXPECT_EQ(leaves[i].id, tree.leaf_ids()[i]);
    EXPECT_EQ(leaves[i].first, next);
    next = leaves[i].last;
  }
  EXPECT_EQ(next, weights.size());
  merge_to_one_leaf(tree, rng, region);
}

TEST_P(PartitionTreeProperty, MergeToSingleLeafRestoresRegion) {
  // The leaf search's cut, then random remerges.
  util::Rng rng(GetParam() ^ 0x55);
  const Extent region{0, 4096};
  PartitionTree tree(region);
  tree.bisect_weighted(unit_weights(region.len, rng.uniform_u64(500) + 64));
  tree.check_invariants();
  merge_to_one_leaf(tree, rng, region);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionTreeProperty,
                         ::testing::Values(1, 7, 42, 1001, 31337));

}  // namespace
}  // namespace mcio::core
