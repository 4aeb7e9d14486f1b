#include "core/partition_tree.h"

#include <algorithm>

#include "util/check.h"

namespace mcio::core {

using util::Extent;

PartitionTree::PartitionTree(Extent region) : region_(region) {
  MCIO_CHECK_MSG(!region.empty(), "partition tree over empty region");
  root_ = new_node(region, -1);
}

int PartitionTree::new_node(Extent extent, int parent) {
  nodes_.push_back(Node{extent, parent, -1, -1, true});
  return static_cast<int>(nodes_.size() - 1);
}

const PartitionTree::Node& PartitionTree::node(int id) const {
  MCIO_CHECK_GE(id, 0);
  MCIO_CHECK_LT(static_cast<std::size_t>(id), nodes_.size());
  const Node& n = nodes_[static_cast<std::size_t>(id)];
  MCIO_CHECK_MSG(n.alive, "access to departed vertex " << id);
  return n;
}

PartitionTree::Node& PartitionTree::node(int id) {
  return const_cast<Node&>(
      static_cast<const PartitionTree*>(this)->node(id));
}

namespace {

/// The stripe grid inside one extent: `cells` grid cells touched, so
/// cells - 1 interior grid points, the i-th at (first_unit + i) * align.
struct Grid {
  std::uint64_t align;
  std::uint64_t first_unit;
  std::uint64_t cells;

  Grid(Extent ext, std::uint64_t a)
      : align(std::max<std::uint64_t>(a, 1)),
        first_unit(ext.offset / align),
        cells((ext.end() - 1) / align - first_unit + 1) {}

  /// The grid point nearest to `mid`, moved so that at least `left`
  /// cells lie before it and `right` after it. Where the extent has fewer
  /// cells than that, each side still keeps at least one.
  std::uint64_t split(std::uint64_t mid, std::uint64_t left,
                      std::uint64_t right) const {
    left = std::clamp<std::uint64_t>(left, 1, cells - 1);
    right = std::clamp<std::uint64_t>(right, 1, cells - left);
    const std::uint64_t nearest = (mid + align / 2) / align;
    const std::uint64_t i = nearest > first_unit ? nearest - first_unit : 0;
    return (first_unit + std::clamp(i, left, cells - right)) * align;
  }
};

}  // namespace

std::vector<PartitionTree::WeightedLeaf> PartitionTree::bisect_weighted(
    const std::vector<double>& weights, std::uint64_t align) {
  MCIO_CHECK(!weights.empty());
  MCIO_CHECK_MSG(is_leaf(root_), "bisection of a region already split");
  for (const double w : weights) MCIO_CHECK_GT(w, 0.0);
  std::vector<WeightedLeaf> leaves;
  std::vector<WeightedLeaf> pending{{root_, 0, weights.size()}};
  while (!pending.empty()) {
    const WeightedLeaf item = pending.back();
    pending.pop_back();
    const Extent ext = extent_of(item.id);
    const Grid grid(ext, align);
    if (item.last - item.first <= 1 || grid.cells <= 1) {
      leaves.push_back(item);
      continue;
    }
    // Split the weight range at the point balancing the two halves.
    double total = 0.0;
    for (std::size_t i = item.first; i < item.last; ++i) {
      total += weights[i];
    }
    double acc = 0.0;
    std::size_t split = item.first + 1;
    for (std::size_t i = item.first; i + 1 < item.last; ++i) {
      acc += weights[i];
      split = i + 1;
      if (acc >= total / 2.0) break;
    }
    double left_weight = 0.0;
    for (std::size_t i = item.first; i < split; ++i) {
      left_weight += weights[i];
    }
    const std::uint64_t mid = grid.split(
        ext.offset + static_cast<std::uint64_t>(
                         static_cast<double>(ext.len) *
                         (left_weight / total)),
        split - item.first, item.last - split);
    const int l = new_node(Extent{ext.offset, mid - ext.offset}, item.id);
    const int r = new_node(Extent{mid, ext.end() - mid}, item.id);
    Node& parent = node(item.id);
    parent.left = l;
    parent.right = r;
    // Right first, so leaves pop off the stack left to right.
    pending.push_back(WeightedLeaf{r, split, item.last});
    pending.push_back(WeightedLeaf{l, item.first, split});
  }
  return leaves;
}

void PartitionTree::collect_leaves(int id, std::vector<int>& out) const {
  const Node& n = node(id);
  if (n.leaf()) {
    out.push_back(id);
    return;
  }
  collect_leaves(n.left, out);
  collect_leaves(n.right, out);
}

std::vector<int> PartitionTree::leaf_ids() const {
  std::vector<int> out;
  collect_leaves(root_, out);
  return out;
}

std::size_t PartitionTree::num_leaves() const { return leaf_ids().size(); }

Extent PartitionTree::extent_of(int id) const { return node(id).extent; }

bool PartitionTree::is_leaf(int id) const { return node(id).leaf(); }

int PartitionTree::remerge_into_neighbor(int leaf_id) {
  Node& departing = node(leaf_id);
  MCIO_CHECK_MSG(departing.leaf(),
                 "remerge of internal vertex " << leaf_id);
  if (leaf_id == root_) return -1;  // the only domain left

  const int parent_id = departing.parent;
  Node& parent = node(parent_id);
  const bool was_left = parent.left == leaf_id;
  const int sibling_id = was_left ? parent.right : parent.left;
  Node& sibling = node(sibling_id);

  if (sibling.leaf()) {
    // Case 1 (Fig 5a): the former parent becomes a leaf owned by the
    // sibling; the two regions merge into the parent's region.
    parent.left = -1;
    parent.right = -1;
    departing.alive = false;
    sibling.alive = false;
    // The parent's extent already equals the union of both children.
    return parent_id;
  }

  // Case 2 (Fig 5b): directional DFS inside the sibling subtree for the
  // adjacent leaf: visit left children first when the departing leaf was
  // the left sibling, right children first otherwise.
  int cur = sibling_id;
  while (!node(cur).leaf()) {
    cur = was_left ? node(cur).left : node(cur).right;
  }
  Node& absorber = node(cur);
  // Adjacent regions: departing | absorber forms one contiguous range.
  const std::uint64_t lo =
      std::min(absorber.extent.offset, departing.extent.offset);
  const std::uint64_t hi =
      std::max(absorber.extent.end(), departing.extent.end());
  MCIO_CHECK_EQ(hi - lo, absorber.extent.len + departing.extent.len);
  absorber.extent = Extent{lo, hi - lo};
  // Propagate the expanded range up to (excluding) the spliced parent so
  // internal extents remain the union of their children.
  for (int up = absorber.parent; up != parent_id && up >= 0;
       up = node(up).parent) {
    Node& a = node(up);
    const std::uint64_t alo = std::min(a.extent.offset, lo);
    const std::uint64_t ahi = std::max(a.extent.end(), hi);
    a.extent = Extent{alo, ahi - alo};
  }

  // Splice the parent out: the sibling replaces it under the grandparent.
  const int grandparent_id = parent.parent;
  sibling.parent = grandparent_id;
  if (grandparent_id < 0) {
    root_ = sibling_id;
  } else {
    Node& gp = node(grandparent_id);
    if (gp.left == parent_id) {
      gp.left = sibling_id;
    } else {
      MCIO_CHECK_EQ(gp.right, parent_id);
      gp.right = sibling_id;
    }
  }
  parent.alive = false;
  departing.alive = false;
  return cur;
}

void PartitionTree::check_invariants() const {
  const auto leaves = leaf_ids();
  MCIO_CHECK(!leaves.empty());
  std::uint64_t cursor = region_.offset;
  for (const int id : leaves) {
    const Extent e = extent_of(id);
    MCIO_CHECK_MSG(e.offset == cursor,
                   "leaf " << id << " starts at " << e.offset
                           << ", expected " << cursor);
    MCIO_CHECK_GT(e.len, 0u);
    cursor = e.end();
  }
  MCIO_CHECK_EQ(cursor, region_.end());
  // Parent/child link consistency.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (!n.alive) continue;
    MCIO_CHECK_EQ(n.left < 0, n.right < 0);
    if (n.left >= 0) {
      MCIO_CHECK_EQ(node(n.left).parent, static_cast<int>(i));
      MCIO_CHECK_EQ(node(n.right).parent, static_cast<int>(i));
      // An internal vertex covers exactly its children.
      MCIO_CHECK_LE(n.extent.offset, node(n.left).extent.offset);
      MCIO_CHECK_GE(n.extent.end(), node(n.right).extent.end());
    }
  }
}

}  // namespace mcio::core
