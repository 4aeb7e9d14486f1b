// Aggregation Group Division (§3.1, Figure 4).
//
// The I/O workload is divided into disjoint aggregation groups so the data
// shuffle stays inside each group. For the common case — explicit-offset /
// serially distributed requests — the division walks the linearized data
// distribution, cutting when the accumulated bytes reach the optimal group
// message size Msg_group, and *extends each cut to the ending offset of
// the data accessed by the last process of the current compute node* so
// that one physical node never hosts aggregators of two groups (Fig 4).
// For interleaved/complex file views the division falls back to analyzing
// the aggregate view: the file region is split into Msg_group-sized chunks
// and compute nodes are partitioned contiguously across them.
#pragma once

#include <cstdint>
#include <vector>

#include "util/extent.h"

namespace mcio::core {

struct GroupDivisionInput {
  /// Per-rank request bounds (len 0 = no data).
  std::vector<util::Extent> rank_bounds;
  /// Physical node of each rank.
  std::vector<int> rank_nodes;
  /// Target bytes of workload per aggregation group (Msg_group).
  /// 0 = no division: all data-bearing ranks form a single group.
  std::uint64_t msg_group = 0;
  /// Optional alignment for region cuts in the interleaved fallback.
  std::uint64_t align = 0;
  /// Optional per-node aggregation-memory weights (indexed by node id).
  /// When set, the interleaved fallback sizes each group's file region
  /// proportionally to its nodes' weight — the balanced
  /// memory-consumption design of §3.1. Empty = uniform regions.
  std::vector<double> node_weights;
};

struct AggregationGroup {
  /// File region this group aggregates.
  util::Extent region;
  /// Ranks whose nodes belong to this group — the candidate aggregator
  /// hosts (and, for serial distributions, the data owners).
  std::vector<int> ranks;
};

/// True when the per-rank bounds are pairwise non-overlapping — the
/// serially-distributed / explicit-offset case of §3.1.
bool is_serial_distribution(const std::vector<util::Extent>& rank_bounds);

/// The interleaved / complex-view fallback of divide_groups: the global
/// file region is split into Msg_group-sized chunks (weighted by
/// node_weights when given) and the data-bearing nodes are partitioned
/// contiguously across them. O(ranks + nodes). Exposed for tests.
std::vector<AggregationGroup> divide_interleaved(
    const GroupDivisionInput& in);

/// Divides the workload. Returns at least one group covering all data;
/// group regions are sorted and disjoint, and each rank with data appears
/// in exactly one group.
std::vector<AggregationGroup> divide_groups(const GroupDivisionInput& in);

}  // namespace mcio::core
