// MPI-IO style hints controlling the collective drivers (the subset of
// ROMIO's cb_* / striping hints this library honours).
#pragma once

#include <cstdint>

namespace mcio::io {

struct Hints {
  /// Aggregation (collective) buffer per aggregator — ROMIO cb_buffer_size.
  std::uint64_t cb_buffer_size = 16ull << 20;
  /// Number of aggregator hosts; -1 = one aggregator process per node
  /// (ROMIO's default cb_config_list behaviour).
  int cb_nodes = -1;
  /// Align file-domain boundaries to the file system stripe unit.
  bool align_file_domains = true;
  /// Enable read-modify-write (data sieving) for write windows with holes.
  bool data_sieving_writes = true;
  /// Max gap (bytes) bridged by a data-sieving read in independent I/O.
  std::uint64_t ds_max_gap = 256ull << 10;
  /// Node-leader hierarchy: co-located ranks combine offset lists and
  /// payloads into their node's leader over the shm channel, and only
  /// leaders speak on the interconnect (O(nodes) inter-node messages
  /// instead of O(ranks)). Off by default — the flat path stays the
  /// golden reference.
  bool cb_node_leaders = false;

  // --- graceful degradation under memory faults (node::FaultPlan) ---
  /// First retry backoff in virtual seconds; doubles per retry.
  double fault_backoff_s = 1e-3;
  /// The ladder never shrinks an aggregation buffer below this; once at
  /// the floor it spills (forced overcommitted lease, swap speed).
  std::uint64_t fault_shrink_floor = 1ull << 20;
  /// Borrow-far-memory rung (rung 4): when the local ladder bottoms out,
  /// lease an aggregation window on a donor node with headroom and reach
  /// it over the fabric (ClusterConfig::fabric_mem_*) instead of spilling
  /// to swap. Off by default — the four-rung ladder stays the golden
  /// reference.
  bool borrow_far_memory = false;
  /// Headroom a donor must keep for its own aggregation after granting a
  /// borrow: elect_donor requires available ≥ request + reserve.
  std::uint64_t borrow_donor_reserve = 1ull << 20;
};

}  // namespace mcio::io
