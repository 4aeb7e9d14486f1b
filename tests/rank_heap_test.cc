// Deterministic per-rank heap budget: the memtrack peak of a whole run,
// divided by its rank count, for a barrier plus one allreduce_max and for
// one collective write of the ior-scale shape (one interleaved 16 KiB
// transfer per rank), at 1,024 and 4,096 ranks. Per-rank state that
// grows with the machine (match tables sized per rank, a P-entry vector
// per rank) fails the 1.25x flatness check; a fixed per-rank cost that
// grows fails the absolute budget.
#include <gtest/gtest.h>

#include <cstdint>

#include "common.h"  // the bench harness (tests/CMakeLists adds bench/)
#include "io/mpi_file.h"
#include "io/two_phase_driver.h"
#include "util/memtrack.h"
#include "workloads/ior.h"

namespace mcio {
namespace {

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define MCIO_TEST_UNDER_SANITIZER 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MCIO_TEST_UNDER_SANITIZER 1
#endif

/// Peak tracked heap per rank of one run on `nodes` nodes of 8 ranks,
/// counted on this thread from before the machine is built. `write` adds
/// one ior-scale collective write after the barrier and allreduce.
double peak_heap_per_rank(int nodes, bool write) {
  bench::Testbed tb;
  tb.nodes = nodes;
  tb.ranks_per_node = 8;
  const int nranks = nodes * tb.ranks_per_node;
  workloads::IorConfig w;
  w.block_size = 16ull << 10;
  w.transfer_size = 16ull << 10;
  w.segments = 1;
  w.interleaved = true;
  constexpr std::uint64_t kLevel = 16ull << 20;

  util::memtrack::reset();
  {
    core::SimStack stack(tb.stack(kLevel, /*mem_stdev=*/0.0));
    io::TwoPhaseDriver driver;
    const io::Hints hints = bench::hints_at(kLevel);
    stack.machine().run(nranks, [&](mpi::Rank& rank) {
      rank.world().barrier();
      const double t = rank.world().allreduce_max(rank.actor().now());
      EXPECT_GE(t, 0.0);
      if (!write) return;
      const io::AccessPlan plan = workloads::ior_plan(
          rank.rank(), nranks, w,
          util::Payload::virtual_bytes(workloads::ior_bytes_per_rank(w)));
      io::MPIFile file(rank, rank.world(), stack.services(), "/rank_heap",
                       /*create=*/true, hints, &driver);
      file.write_all_plan(plan);
    });
  }
  return static_cast<double>(util::memtrack::peak_bytes()) / nranks;
}

void expect_flat_and_budgeted(bool write, double budget) {
  const double p1 = peak_heap_per_rank(128, write);  // 1,024 ranks
  const double p4 = peak_heap_per_rank(512, write);  // 4,096 ranks
  EXPECT_GT(p1, 0.0);
  EXPECT_LE(p4, 1.25 * p1) << "peak heap per rank grew from " << p1
                           << " B at 1,024 ranks to " << p4
                           << " B at 4,096";
#if !defined(MCIO_TEST_UNDER_SANITIZER)
  // Sanitizer allocators report other block sizes: flatness only there.
  for (const double p : {p1, p4}) {
    EXPECT_LE(p, budget) << "peak heap per rank " << p << " B (1,024 ranks: "
                         << p1 << " B, 4,096: " << p4 << " B)";
  }
#else
  (void)budget;
#endif
}

TEST(RankHeap, BarrierAndAllreduce) {
  expect_flat_and_budgeted(/*write=*/false, /*budget=*/1200.0);
}

TEST(RankHeap, IorScaleWrite) {
  expect_flat_and_budgeted(/*write=*/true, /*budget=*/1800.0);
}

}  // namespace
}  // namespace mcio
