// Shared fixtures for integration tests: the config of a small simulated
// cluster with a file system and memory manager (a core::SimStack), plus
// a round-trip helper that writes a pattern collectively, reads it back
// and verifies both the file contents and the received bytes.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/mccio_driver.h"
#include "io/mpi_file.h"
#include "io/two_phase_driver.h"
#include "util/check.h"
#include "workloads/pattern.h"

namespace mcio::testing {

/// Seed for randomized tests. Defaults to 42 so runs are reproducible;
/// `MCIO_TEST_SEED=<n>` overrides it to explore other schedules. The
/// effective seed is printed once so a failing run can always be replayed.
inline std::uint64_t test_seed() {
  static const std::uint64_t seed = [] {
    std::uint64_t s = 42;
    if (const char* env = std::getenv("MCIO_TEST_SEED")) {
      s = std::strtoull(env, nullptr, 10);
    }
    std::fprintf(stderr,
                 "[mcio] randomized tests seeded with %llu "
                 "(override with MCIO_TEST_SEED)\n",
                 static_cast<unsigned long long>(s));
    return s;
  }();
  return seed;
}

/// A small simulated test cluster: 3 nodes of 4 ranks, 4 OSTs with
/// 64 KiB stripes keeping real bytes, and 1 MiB of aggregation memory on
/// every node.
inline core::StackConfig mini_stack() {
  core::StackConfig c;
  c.cluster.num_nodes = 3;
  c.cluster.ranks_per_node = 4;
  c.pfs.num_osts = 4;
  c.pfs.stripe_unit = 64 << 10;
  c.pfs.store_data = true;
  c.mem_mean = 1 << 20;
  c.mem_variance.relative_stdev = 0.0;
  c.mem_seed = 7;
  return c;
}

/// Builds a per-rank plan over a fresh buffer.
using PlanFactory =
    std::function<io::AccessPlan(int rank, int nprocs,
                                 std::vector<std::byte>& storage)>;

/// Writes the pattern collectively with `driver`, verifies the simulated
/// file contents, then reads it back collectively and verifies the
/// buffers. Throws util::Error (failing the test) on any mismatch.
inline void round_trip(core::SimStack& cluster, io::CollectiveDriver& driver,
                       int nranks, const PlanFactory& make_plan,
                       std::uint64_t seed = test_seed(),
                       const io::Hints& hints = io::Hints{},
                       metrics::CollectiveStats* stats = nullptr) {
  const std::string path = "/roundtrip";
  cluster.machine().run(nranks, [&](mpi::Rank& rank) {
    std::vector<std::byte> wstorage;
    const io::AccessPlan wplan = make_plan(rank.rank(), nranks, wstorage);
    workloads::fill_pattern(wplan, seed);

    io::MPIFile file(rank, rank.world(), cluster.services(), path,
                     /*create=*/true, hints, &driver);
    if (stats != nullptr) file.set_stats(stats);
    file.write_all_plan(wplan);
    rank.world().barrier();

    // Verify the file itself (every rank checks its own extents).
    std::string err;
    MCIO_CHECK_MSG(workloads::verify_store(cluster.fs().store(
                                               file.handle()),
                                           wplan.extents.runs(), seed,
                                           &err),
                   "rank " << rank.rank() << " write: " << err);

    std::vector<std::byte> rstorage;
    const io::AccessPlan rplan = make_plan(rank.rank(), nranks, rstorage);
    file.read_all_plan(rplan);
    rank.world().barrier();
    MCIO_CHECK_MSG(workloads::verify_pattern(rplan, seed, &err),
                   "rank " << rank.rank() << " read: " << err);
  });
}

}  // namespace mcio::testing
