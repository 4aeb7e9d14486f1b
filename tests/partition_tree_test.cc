// Partition tree: bisection, the paper's two remerge takeover cases
// (Figs 5a/5b), weighted splits, and randomized invariant checks.
#include <gtest/gtest.h>

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

TEST(PartitionTree, BisectToCriterion) {
  PartitionTree tree(Extent{0, 1 << 20});
  tree.bisect(100 << 10);  // Msg_ind = 100 KiB
  tree.check_invariants();
  for (const int leaf : tree.leaf_ids()) {
    EXPECT_LE(tree.extent_of(leaf).len, 100u << 10);
  }
  EXPECT_EQ(tree.num_leaves(), 16u);  // 1 MiB / 64 KiB after halving
}

TEST(PartitionTree, BisectAligned) {
  PartitionTree tree(Extent{0, 10 * 1000});
  tree.bisect(3000, 1024);
  tree.check_invariants();
  const auto leaves = tree.leaf_ids();
  for (std::size_t i = 0; i + 1 < leaves.size(); ++i) {
    EXPECT_EQ(tree.extent_of(leaves[i]).end() % 1024, 0u)
        << "interior boundary must be aligned";
  }
}

TEST(PartitionTree, RemergeCase1SiblingLeaf) {
  // Fig 5a: A leaves; its sibling B is a leaf; the parent becomes a leaf
  // that owns both regions.
  PartitionTree tree(Extent{0, 100});
  tree.split_leaf(tree.root());
  const auto leaves = tree.leaf_ids();
  ASSERT_EQ(leaves.size(), 2u);
  const int absorber = tree.remerge_into_neighbor(leaves[0]);
  EXPECT_EQ(absorber, tree.root());
  EXPECT_EQ(tree.num_leaves(), 1u);
  EXPECT_EQ(tree.extent_of(absorber), (Extent{0, 100}));
  tree.check_invariants();
}

TEST(PartitionTree, RemergeCase2LeftSiblingDfs) {
  // Fig 5b: A is the LEFT child; sibling B is a subtree. The DFS must
  // visit left children first, so B's leftmost leaf (adjacent to A)
  // absorbs A's region.
  PartitionTree tree(Extent{0, 400});
  tree.split_leaf(tree.root());  // [0,200) [200,400)
  auto leaves = tree.leaf_ids();
  tree.split_leaf(leaves[1]);  // right: [200,300) [300,400)
  leaves = tree.leaf_ids();
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
  tree.split_leaf(tree.root());  // [0,200) [200,400)
  auto leaves = tree.leaf_ids();
  tree.split_leaf(leaves[0]);  // left: [0,100) [100,200)
  leaves = tree.leaf_ids();
  ASSERT_EQ(leaves.size(), 3u);
  const int absorber = tree.remerge_into_neighbor(leaves[2]);
  EXPECT_EQ(tree.extent_of(absorber), (Extent{100, 300}));
  tree.check_invariants();
}

TEST(PartitionTree, RemergeOnlyLeafReturnsMinusOne) {
  PartitionTree tree(Extent{0, 10});
  EXPECT_EQ(tree.remerge_into_neighbor(tree.root()), -1);
}

TEST(PartitionTree, BisectIntoExactParts) {
  PartitionTree tree(Extent{0, 700});
  tree.bisect_into(7);
  tree.check_invariants();
  EXPECT_EQ(tree.num_leaves(), 7u);
  for (const int leaf : tree.leaf_ids()) {
    EXPECT_EQ(tree.extent_of(leaf).len, 100u);
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

TEST(PartitionTree, BisectIntoCapsPartsAtTheGrid) {
  // Eight parts asked of three stripes: three one-stripe leaves.
  constexpr std::uint64_t kStripe = 1 << 20;
  PartitionTree tree(Extent{0, 3 * kStripe});
  tree.bisect_into(8, kStripe);
  expect_on_grid(tree, kStripe);
  ASSERT_EQ(tree.num_leaves(), 3u);
  for (const int leaf : tree.leaf_ids()) {
    EXPECT_EQ(tree.extent_of(leaf).len, kStripe);
  }
  // Two parts of an unaligned region split on the grid, not at its
  // midpoint.
  PartitionTree shifted(Extent{kStripe / 4, kStripe});
  shifted.bisect_into(2, kStripe);
  expect_on_grid(shifted, kStripe);
  EXPECT_EQ(shifted.num_leaves(), 2u);
}

TEST(PartitionTree, SplitSingleByteFails) {
  PartitionTree tree(Extent{5, 1});
  EXPECT_FALSE(tree.split_leaf(tree.root()));
  EXPECT_EQ(tree.num_leaves(), 1u);
}

class PartitionTreeProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PartitionTreeProperty, RandomSplitMergeKeepsInvariants) {
  util::Rng rng(GetParam());
  PartitionTree tree(Extent{1000, 64 * 1024});
  for (int step = 0; step < 200; ++step) {
    const auto leaves = tree.leaf_ids();
    // mcio-analyze: allow(untagged-narrowing) -- element is already an int
    const int pick = leaves[rng.uniform_u64(leaves.size())];
    if (rng.uniform_double() < 0.6) {
      tree.split_leaf(pick, rng.uniform_double() < 0.5 ? 512 : 0);
    } else if (leaves.size() > 1) {
      const int absorber = tree.remerge_into_neighbor(pick);
      ASSERT_GE(absorber, 0);
      ASSERT_TRUE(tree.is_leaf(absorber));
    }
    tree.check_invariants();
  }
}

TEST_P(PartitionTreeProperty, MergeToSingleLeafRestoresRegion) {
  util::Rng rng(GetParam() ^ 0x55);
  PartitionTree tree(Extent{0, 4096});
  tree.bisect(rng.uniform_u64(500) + 64);
  while (tree.num_leaves() > 1) {
    const auto leaves = tree.leaf_ids();
    tree.remerge_into_neighbor(
        leaves[rng.uniform_u64(leaves.size())]);
    tree.check_invariants();
  }
  EXPECT_EQ(tree.extent_of(tree.leaf_ids()[0]), (Extent{0, 4096}));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionTreeProperty,
                         ::testing::Values(1, 7, 42, 1001, 31337));

}  // namespace
}  // namespace mcio::core
