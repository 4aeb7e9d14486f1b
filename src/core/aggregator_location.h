// Aggregators Location (§3.3) + Workload Portion Remerging (§3.2).
//
// For each file domain produced by the partition tree, collect the
// processes whose requests fall in the domain, compare their hosts
// (each candidate host must have fewer than N_ah aggregators already),
// and pick the host with maximum available memory Mem_avl. If Mem_avl is
// below Mem_min, no related node can aggregate this domain without
// underperforming, so the domain is remerged with its neighbour (tree
// takeover, Figs 5a/5b) and the search repeats on the merged domain.
#pragma once

#include <cstdint>
#include <vector>

#include "core/partition_tree.h"
#include "io/exchange.h"
#include "util/extent.h"

namespace mcio::core {

struct LocationInput {
  /// Per-rank request bounds (the processes "of which I/O requests are
  /// located in this file domain" are found by intersection).
  std::vector<util::Extent> rank_bounds;
  /// Physical node of each rank.
  std::vector<int> rank_nodes;
  /// Candidate ranks for this group (group members). Empty = all ranks.
  std::vector<int> candidate_ranks;
  /// Available memory per node (Mem_avl), indexed by node id. Mutated as
  /// placements consume planned buffer space.
  std::vector<std::uint64_t>* node_available = nullptr;
  /// Aggregators already placed per node (mutated), indexed by node id.
  std::vector<int>* node_aggregators = nullptr;
  std::uint64_t mem_min = 0;  ///< Mem_min
  std::uint64_t msg_ind = 0;  ///< Msg_ind: per-domain buffer target
  /// Aggregation buffers are rounded down to this (the stripe unit), so
  /// exchange windows stay stripe-aligned. 0 = no alignment.
  std::uint64_t buffer_align = 0;
  int n_ah = 1;               ///< max aggregators per host
  bool remerging = true;      ///< ablation switch (off: place anyway)
  /// Optional counter bumped once per remerge performed (degradation
  /// metrics; the caller aggregates across groups).
  std::uint64_t* remerges = nullptr;
  /// Ablation switch: off ignores Mem_avl (first related host wins and no
  /// memory floor is enforced), isolating §3.3's contribution.
  bool memory_aware = true;
};

/// Seats the aggregator of `domain` on `node`, or with `undo` gives back
/// the seat an earlier call returned. Every placement shares this step:
/// the node's next rank in `ranks` round-robin, `domain.buffer_bytes`
/// rounded down to `in.buffer_align` when above it, one seat counted
/// toward the node's N_ah, and the buffer charged against its planned
/// Mem_avl (floored at 0). Returns the seated domain.
io::FileDomain seat_aggregator(const LocationInput& in, int node,
                               const std::vector<int>& ranks,
                               io::FileDomain domain, bool undo = false);

/// Runs aggregator location over the leaves of `tree`, remerging domains
/// whose hosts lack memory. Returns the final file domains with
/// aggregator ranks and per-domain buffer sizes, sorted by offset.
std::vector<io::FileDomain> locate_aggregators(PartitionTree& tree,
                                               const LocationInput& in);

}  // namespace mcio::core
