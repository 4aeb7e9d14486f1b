#include "workload.h"

#include "util/bytes.h"
#include "util/check.h"
#include "util/payload.h"
#include "util/rng.h"

namespace perfbench {

using mcio::util::kMiB;

mcio::sim::ClusterConfig testbed_cluster(int nodes) {
  mcio::sim::ClusterConfig c;
  c.num_nodes = nodes;
  c.ranks_per_node = 12;
  c.nic_bandwidth = 1.5e9;
  c.nic_latency = 2.0e-6;
  c.membus_bandwidth = 25.0e9;
  c.node_memory = 24ull << 30;
  c.swap_bandwidth = 40.0e6;
  return c;
}

mcio::pfs::PfsConfig testbed_pfs() {
  mcio::pfs::PfsConfig p;
  p.num_osts = 32;
  p.stripe_unit = 1ull << 20;
  p.default_stripe_count = -1;
  p.ost_write_bandwidth = 1.0e9;
  p.ost_read_bandwidth = 117.0e6;
  p.rpc_latency = 0.4e-3;
  p.seek_latency = 79.0e-3;
  p.read_seek_latency = 28.5e-3;
  p.max_rpc_bytes = 16ull << 20;
  p.store_data = false;
  return p;
}

mcio::io::AccessPlan Workload::make_plan(int rank) const {
  using mcio::util::Payload;
  if (pattern == Pattern::kCollPerf) {
    return mcio::workloads::collperf_plan(
        rank, ranks, collperf,
        Payload::virtual_bytes(
            mcio::workloads::collperf_bytes_per_rank(rank, ranks, collperf)));
  }
  return mcio::workloads::ior_plan(
      rank, ranks, ior,
      Payload::virtual_bytes(mcio::workloads::ior_bytes_per_rank(ior)));
}

std::uint64_t Workload::cell_seed(int trial, std::uint64_t level) const {
  std::uint64_t state = seed;
  std::uint64_t out = mcio::util::splitmix64(state);
  state = out ^ static_cast<std::uint64_t>(trial);
  out = mcio::util::splitmix64(state);
  state = out ^ level;
  return mcio::util::splitmix64(state);
}

namespace {

/// Figure 8's IOR shape: interleaved 1 MiB transfers, 90 nodes × 12.
/// Bound by the engine and the transport (millions of slices and
/// messages per sweep).
Workload ior_1080(bool tiny) {
  Workload w;
  w.nodes = tiny ? 4 : 90;
  w.ior.block_size = (tiny ? 2 : 8) * kMiB;
  w.ior.transfer_size = 1 * kMiB;
  w.levels = {128 * kMiB, 16 * kMiB, 2 * kMiB};
  w.figure8_anchors = true;
  return w;
}

/// Figure 6's coll_perf subarray pattern on 120 ranks. Bound by extent
/// lists and datatypes rather than by messages. Ten nodes make the
/// slowest aggregator's memory draw swing the bandwidth, so each pass
/// averages seven independent trials.
Workload collperf_3d(bool tiny) {
  Workload w;
  w.nodes = tiny ? 2 : 10;
  w.pattern = Pattern::kCollPerf;
  const std::uint64_t dim = tiny ? 48 : 192;
  w.collperf.dims = {dim, dim, dim};
  w.collperf.elem_size = 8;
  w.levels = {128 * kMiB, 16 * kMiB, 2 * kMiB};
  w.trials = tiny ? 2 : 7;
  return w;
}

/// Many ranks with one small interleaved transfer each and one memory
/// level: bound by the replicated O(P²) planning every rank repeats.
/// Six trials, because MCCIO's bandwidth for so little data snaps
/// between a few values with the memory draw.
Workload ior_scale(bool tiny) {
  Workload w;
  w.nodes = tiny ? 8 : 86;
  w.ior.block_size = 16ull << 10;
  w.ior.transfer_size = 16ull << 10;
  w.levels = {16 * kMiB};
  w.trials = tiny ? 2 : 6;
  return w;
}

/// Memory pressure: half the nodes hold data, the other half are idle
/// donors; a fault plan denies, delays, revokes and exhausts, and the
/// borrow rung and node leaders are on. The only workload that drives
/// node::MemoryManager's fault-aware paths and the degradation ladder.
/// Which nodes and leases the schedule hits moves the bandwidth a lot, so
/// each pass averages twelve independent trials of a 40-node cluster.
Workload ior_pressure(bool tiny) {
  Workload w;
  w.nodes = tiny ? 10 : 40;
  w.ranks = tiny ? 60 : 240;
  w.ior.block_size = (tiny ? 2 : 4) * kMiB;
  w.ior.transfer_size = 256ull << 10;
  w.levels = {16 * kMiB, 4 * kMiB};
  w.trials = tiny ? 2 : 12;
  w.faults.denial_rate = 0.05;
  w.faults.exhaust_rate = 0.3;
  w.faults.revoke_rate = 0.5;
  w.faults.delay_rate = 0.1;
  w.hints.fault_backoff_s = 20e-3;
  w.hints.borrow_far_memory = true;
  w.hints.cb_node_leaders = true;
  return w;
}

}  // namespace

Workload make_workload(const std::string& name, bool tiny,
                       std::uint64_t seed) {
  Workload w;
  if (name == "ior-1080") {
    w = ior_1080(tiny);
  } else if (name == "collperf-3d") {
    w = collperf_3d(tiny);
  } else if (name == "ior-scale") {
    w = ior_scale(tiny);
  } else if (name == "ior-pressure") {
    w = ior_pressure(tiny);
  } else {
    MCIO_CHECK_MSG(false, "unknown workload '" << name << "'");
  }
  w.name = name;
  if (w.ranks == 0) w.ranks = w.nodes * 12;
  w.ior.segments = 1;
  w.ior.interleaved = true;
  w.seed = seed;
  return w;
}

}  // namespace perfbench
