// Deterministic complexity budget for collective planning: a collective
// write plus read of the ior-scale shape (12 ranks per node, one
// interleaved 16 KiB transfer per rank), flat and through node leaders,
// must allocate O(1) host bytes per rank, and build exactly one plan per
// collective. Replicated O(P^2) planning — every rank rebuilding the plan
// from its own copy of a P-entry allgather — grows the per-rank bytes
// linearly with P and fails the 1.25x budget below by a wide margin.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "common.h"  // the bench harness (tests/CMakeLists adds bench/)
#include "core/mccio_driver.h"
#include "io/mpi_file.h"
#include "io/two_phase_driver.h"
#include "util/memtrack.h"
#include "workloads/ior.h"

namespace mcio {
namespace {

struct ScalePoint {
  double bytes_per_rank = 0.0;
  std::uint64_t plan_builds = 0;
};

/// One write + read of the ior-scale shape on `nodes` nodes, allocation
/// counted on this thread from before the simulation stack is built.
/// `hier` routes the exchange through node leaders.
ScalePoint run_point(int nodes, bool mccio, bool hier) {
  bench::Testbed tb;
  tb.nodes = nodes;
  tb.ranks_per_node = 12;
  const int nranks = nodes * tb.ranks_per_node;
  workloads::IorConfig w;
  w.block_size = 16ull << 10;
  w.transfer_size = 16ull << 10;
  w.segments = 1;
  w.interleaved = true;
  constexpr std::uint64_t kLevel = 16ull << 20;

  util::memtrack::reset();
  ScalePoint point;
  {
    mpi::Machine machine(tb.cluster());
    pfs::Pfs fs(machine.cluster(), tb.pfs());
    node::MemoryManager memory(tb.cluster(), kLevel,
                               node::MemoryVariance{0.5, 1ull << 20}, 7);
    io::TwoPhaseDriver two_phase;
    core::MccioDriver mccio_driver;
    io::CollectiveDriver* driver =
        mccio ? static_cast<io::CollectiveDriver*>(&mccio_driver)
              : &two_phase;
    io::Hints hints;
    hints.cb_buffer_size = kLevel;
    hints.cb_node_leaders = hier;
    machine.run(nranks, [&](mpi::Rank& rank) {
      const io::AccessPlan plan = workloads::ior_plan(
          rank.rank(), nranks, w,
          util::Payload::virtual_bytes(workloads::ior_bytes_per_rank(w)));
      io::MPIFile file(rank, rank.world(),
                       io::MPIFile::Services{&fs, &memory}, "/plan_scaling",
                       /*create=*/true, hints, driver);
      file.write_all_plan(plan);
      file.read_all_plan(plan);
    });
    point.plan_builds = machine.plan_builds();
  }
  point.bytes_per_rank =
      static_cast<double>(util::memtrack::allocated_bytes()) / nranks;
  return point;
}

void expect_constant_per_rank(bool mccio, bool hier) {
  // P = 516 ranks, then 2P and 4P.
  const ScalePoint p1 = run_point(43, mccio, hier);
  const ScalePoint p2 = run_point(86, mccio, hier);
  const ScalePoint p4 = run_point(172, mccio, hier);
  for (const ScalePoint& p : {p1, p2, p4}) {
    EXPECT_EQ(p.plan_builds, 2u) << "one plan per collective (write, read)";
  }
  EXPECT_GT(p1.bytes_per_rank, 0.0);
  EXPECT_LE(p4.bytes_per_rank, 1.25 * p1.bytes_per_rank)
      << "host bytes per rank grew from " << p1.bytes_per_rank << " at 516"
      << " ranks to " << p2.bytes_per_rank << " at 1032 and "
      << p4.bytes_per_rank << " at 2064";
}

TEST(PlanScaling, TwoPhaseBytesPerRankConstant) {
  expect_constant_per_rank(/*mccio=*/false, /*hier=*/false);
}

TEST(PlanScaling, MccioBytesPerRankConstant) {
  expect_constant_per_rank(/*mccio=*/true, /*hier=*/false);
}

// The node-leader exchange routes through the collective's one route
// table; a per-rank node map or source scan grows the bytes with P.
TEST(PlanScaling, TwoPhaseHierBytesPerRankConstant) {
  expect_constant_per_rank(/*mccio=*/false, /*hier=*/true);
}

TEST(PlanScaling, MccioHierBytesPerRankConstant) {
  expect_constant_per_rank(/*mccio=*/true, /*hier=*/true);
}

}  // namespace
}  // namespace mcio
