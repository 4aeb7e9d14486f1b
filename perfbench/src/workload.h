// The benchmark's four named workloads (README.md, "Workloads").
//
// Each workload is a cluster shape, an access pattern, the memory levels
// it sweeps and the fault/hint settings of its runs. Every simulation of
// a workload runs one driver at one memory level: a collective write of
// the whole pattern followed by a collective read of it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "io/hints.h"
#include "io/plan.h"
#include "node/fault.h"
#include "pfs/pfs.h"
#include "sim/topology.h"
#include "workloads/collperf.h"
#include "workloads/ior.h"

namespace perfbench {

/// The simulated testbed of the paper's §4 (640-node cluster, 2×6-core
/// Xeons, 24 GB/node, DDR InfiniBand, DDN-backed Lustre with 1 MB
/// stripes), with the calibration of the figure benches. Kept here so
/// the benchmark's inputs do not follow edits to the figure harness.
mcio::sim::ClusterConfig testbed_cluster(int nodes);
mcio::pfs::PfsConfig testbed_pfs();

enum class Pattern { kIor, kCollPerf };

struct Workload {
  std::string name;
  int nodes = 0;
  int ranks = 0;
  Pattern pattern = Pattern::kIor;
  mcio::workloads::IorConfig ior;
  mcio::workloads::CollPerfConfig collperf;
  /// Per-aggregator memory levels (the paper's M), largest first.
  std::vector<std::uint64_t> levels;
  /// Availability stdev as a fraction of the level (paper §4 ¶4).
  double mem_stdev = 0.5;
  /// Attached as a node::FaultPlan when any rate is nonzero.
  mcio::node::FaultConfig faults;
  /// Base hints; cb_buffer_size is set to the level of each run.
  mcio::io::Hints hints;
  /// Figure 8's shape, with its 128 and 2 MiB anchor levels: the run
  /// reports the model error against the paper's published bandwidths.
  bool figure8_anchors = false;
  /// Independent repetitions of the level sweep per pass, each with its
  /// own memory draws and fault schedule. Several small trials average
  /// out how much one draw moves the simulated bandwidth.
  int trials = 1;
  /// The run's seed; every trial and level derives its own from it.
  std::uint64_t seed = 20120512;

  /// Seed of the memory draws and fault schedule of (trial, level);
  /// both drivers of a cell see the same draws.
  std::uint64_t cell_seed(int trial, std::uint64_t level) const;

  /// Rank `rank`'s access plan (virtual payload).
  mcio::io::AccessPlan make_plan(int rank) const;
};

/// The named workload at full size, or at the tiny size of the self-test
/// (same pattern, levels and settings on a few nodes). Throws
/// mcio::util::Error for an unknown name.
Workload make_workload(const std::string& name, bool tiny,
                       std::uint64_t seed);

}  // namespace perfbench
