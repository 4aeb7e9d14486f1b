// The binary partition tree of §3.2.
//
// Each vertex represents a non-overlapping portion of the file region
// requested by one aggregation group; internal vertices are portions that
// were split earlier; leaves are the current file domains. The region is
// cut once, by a weighted bisection on the stripe grid: the memory-aware
// partition weighs each aggregator slot by its buffer budget, and the
// classic leaf search passes ceil(len / Msg_ind) unit weights (capped),
// so its leaves are near-equal and about Msg_ind bytes at most. When a
// domain must give up its region (its hosts lack aggregation memory), the
// leaf leaves the tree and a neighbouring leaf takes over — the two
// takeover cases of Figures 5a and 5b:
//
//   case 1 (Fig 5a): the sibling is a leaf — the parent becomes a leaf and
//     the sibling's region absorbs the departing one;
//   case 2 (Fig 5b): the sibling is a subtree — a directional DFS (left
//     siblings first when the departing leaf was the left child, right
//     first otherwise) finds the adjacent leaf, which absorbs the region;
//     the departing leaf's parent is spliced out.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/extent.h"

namespace mcio::core {

class PartitionTree {
 public:
  explicit PartitionTree(util::Extent region);

  /// One leaf of a weighted bisection and the weights [first, last) that
  /// sized it.
  struct WeightedLeaf {
    int id;
    std::size_t first;
    std::size_t last;
  };

  /// Recursive bisection of the (unsplit) region into weights.size()
  /// leaves whose sizes are proportional to `weights` (left to right) —
  /// the memory-aware data partition: leaf i's share matches the
  /// aggregation memory of the host that will serve it; n unit weights
  /// give n near-equal leaves. Every interior boundary lies on the
  /// `align` grid (0 or 1: any byte), and a split never leaves a side
  /// with fewer grid cells than weights when the extent has enough. A
  /// weight range over fewer cells than it has weights is not cut below
  /// one cell, so its leaves cover several weights each. Returns the
  /// leaves left to right, each with its weight range.
  std::vector<WeightedLeaf> bisect_weighted(
      const std::vector<double>& weights, std::uint64_t align = 0);

  /// Current file domains, left to right (sorted, disjoint, covering the
  /// region).
  std::vector<int> leaf_ids() const;
  std::size_t num_leaves() const;

  util::Extent extent_of(int id) const;
  bool is_leaf(int id) const;
  int root() const { return root_; }

  /// Removes `leaf_id` from the tree; the neighbouring leaf takes over its
  /// region (Figs 5a/5b). Returns the id of the absorbing leaf, or -1 when
  /// the leaf is the only one left (nothing to merge with).
  int remerge_into_neighbor(int leaf_id);

  /// Validates the structural invariants: leaves sorted, disjoint, and
  /// exactly covering the root region; parent/child links consistent.
  /// Throws util::Error on violation.
  void check_invariants() const;

 private:
  struct Node {
    util::Extent extent;
    int parent = -1;
    int left = -1;
    int right = -1;
    bool alive = true;

    bool leaf() const { return left < 0 && right < 0; }
  };

  int new_node(util::Extent extent, int parent);
  void collect_leaves(int id, std::vector<int>& out) const;
  const Node& node(int id) const;
  Node& node(int id);

  std::vector<Node> nodes_;
  int root_ = -1;
  util::Extent region_;
};

}  // namespace mcio::core
