// Quickstart: write and read a shared file collectively with
// memory-conscious collective I/O, the two-phase baseline or independent
// I/O, on a small simulated cluster, with real data verified end to end.
//
//   ./quickstart [--ranks=24] [--driver=mccio|two-phase|independent]
#include <iostream>
#include <optional>
#include <vector>

#include "core/drivers.h"
#include "io/mpi_file.h"
#include "mpi/machine.h"
#include "node/memory.h"
#include "pfs/pfs.h"
#include "util/bytes.h"
#include "util/cli.h"
#include "workloads/ior.h"
#include "workloads/pattern.h"

using namespace mcio;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const int nranks = static_cast<int>(cli.get_int("ranks", 24));
  const std::string driver_name = cli.get_string("driver", "mccio");
  cli.check_unused();
  const std::optional<core::DriverKind> kind = core::driver_kind(driver_name);
  if (!kind) {
    std::cerr << "unknown --driver=" << driver_name
              << " (expected mccio, two-phase or independent)\n";
    return 1;
  }

  // 1. A simulated cluster: 12 ranks per node, plus a striped file
  //    system and a per-node memory manager.
  sim::ClusterConfig cluster;
  cluster.num_nodes = (nranks + 11) / 12;
  cluster.ranks_per_node = 12;
  mpi::Machine machine(cluster);

  pfs::PfsConfig pfs_config;
  pfs_config.num_osts = 8;
  pfs_config.stripe_unit = 1 << 20;
  pfs::Pfs fs(machine.cluster(), pfs_config);

  node::MemoryVariance variance;
  variance.relative_stdev = 0.5;  // memory differs across nodes
  node::MemoryManager memory(cluster, /*mean_available=*/8 << 20,
                             variance, /*seed=*/42);

  // 2. Pick a collective driver.
  core::Drivers drivers(core::MccioConfig{});
  io::CollectiveDriver* driver = &drivers.get(*kind);

  // 3. Every rank runs this body, exactly like an MPI program.
  metrics::CollectiveStats stats;
  machine.run(nranks, [&](mpi::Rank& rank) {
    // Each rank owns an interleaved slice of a shared file (IOR-style).
    workloads::IorConfig w;
    w.block_size = 1 << 20;
    w.transfer_size = 64 << 10;
    w.segments = 2;
    std::vector<std::byte> data(workloads::ior_bytes_per_rank(w));
    io::AccessPlan plan = workloads::ior_plan(rank.rank(), nranks, w,
                                              util::Payload::of(data));
    workloads::fill_pattern(plan, /*seed=*/7);

    io::MPIFile file(rank, rank.world(), {&fs, &memory},
                     "/example/quickstart.dat", /*create=*/true,
                     io::Hints{}, driver);
    file.set_stats(&stats);

    file.write_all_plan(plan);   // collective write
    rank.world().barrier();

    std::vector<std::byte> back(data.size());
    io::AccessPlan read_plan = workloads::ior_plan(
        rank.rank(), nranks, w, util::Payload::of(back));
    file.read_all_plan(read_plan);  // collective read

    std::string err;
    if (!workloads::verify_pattern(read_plan, 7, &err)) {
      std::cerr << "rank " << rank.rank() << ": data mismatch: " << err
                << "\n";
    }
    if (rank.rank() == 0) {
      std::cout << "rank 0 virtual completion time: "
                << rank.actor().now() << " s\n";
    }
  });

  // 4. What the collective operation actually did.
  std::cout << "driver: " << driver->name() << "\n";
  std::cout << "aggregators used: " << stats.num_aggregators() << " in "
            << stats.num_groups() << " group(s)\n";
  const auto buffers = stats.buffer_stats();
  std::cout << "aggregation buffers: mean "
            << util::format_bytes(
                   static_cast<std::uint64_t>(buffers.mean()))
            << ", stdev "
            << util::format_bytes(
                   static_cast<std::uint64_t>(buffers.stdev()))
            << "\n";
  std::cout << "shuffle traffic: "
            << util::format_bytes(stats.shuffle_intra_node())
            << " intra-node, "
            << util::format_bytes(stats.shuffle_inter_node())
            << " inter-node\n";
  std::cout << "file system I/O: " << util::format_bytes(stats.io_bytes())
            << "\n";
  std::cout << "round trip verified OK\n";
  return 0;
}
