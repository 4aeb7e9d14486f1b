// I/O middleware: access plans, file views, independent I/O with data
// sieving, and workload generators.
#include <gtest/gtest.h>

#include <functional>

#include "io/mpi_file.h"
#include "io/independent.h"
#include "mpi/machine.h"
#include "node/memory.h"
#include "pfs/pfs.h"
#include "util/memtrack.h"
#include "workloads/collperf.h"
#include "workloads/ior.h"
#include "workloads/pattern.h"
#include "workloads/strided.h"

namespace mcio {
namespace {

using util::Extent;
using util::Payload;

TEST(AccessPlan, ConstructorChecksBufferSize) {
  const auto two_runs = [] {
    return util::ExtentList::normalize({{0, 10}, {20, 10}});
  };
  EXPECT_THROW(io::AccessPlan(two_runs(), Payload::virtual_bytes(19)),
               util::Error);
  EXPECT_THROW(io::AccessPlan(two_runs(), Payload::virtual_bytes(21)),
               util::Error);
  const io::AccessPlan plan(two_runs(), Payload::virtual_bytes(20));
  EXPECT_EQ(plan.total_bytes(), 20u);
  EXPECT_EQ(plan.bounds(), (Extent{0, 30}));
}

TEST(AccessPlan, UnsortedOrOverlappingInputIsNormalizedThenSizeChecked) {
  // Overlapping runs merge into {0, 15}: the 20-byte buffer no longer fits.
  EXPECT_THROW(
      io::AccessPlan(util::ExtentList::normalize({{0, 10}, {5, 10}}),
                     Payload::virtual_bytes(20)),
      util::Error);
  // Unsorted adjacent runs sort and coalesce into one.
  std::vector<std::byte> buf(30);
  const io::AccessPlan plan(
      util::ExtentList::normalize({{20, 10}, {0, 10}, {10, 10}}),
      Payload::of(buf));
  ASSERT_EQ(plan.extents.size(), 1u);
  EXPECT_EQ(plan.extents.runs()[0], (Extent{0, 30}));
}

TEST(AccessPlan, EmptyPlanIsValid) {
  const io::AccessPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.total_bytes(), 0u);
  EXPECT_EQ(plan.bounds(), Extent{});
  EXPECT_EQ(plan.buffer.size, 0u);
  EXPECT_NO_THROW(
      io::AccessPlan(util::ExtentList{}, Payload::virtual_bytes(0)));
  EXPECT_THROW(io::AccessPlan(util::ExtentList{}, Payload::virtual_bytes(1)),
               util::Error);
}

TEST(AccessPlan, OnASortedListAllocatesAtMostOnce) {
  // normalize adopts a sorted list and the plan moves the list in: the one
  // allocation is the by-value copy of the argument.
  std::vector<Extent> extents;
  for (std::uint64_t i = 0; i < 100'000; ++i) extents.push_back({i * 16, 8});
  util::memtrack::reset();
  const io::AccessPlan plan(util::ExtentList::normalize(extents),
                            Payload::virtual_bytes(100'000 * 8));
  EXPECT_LE(util::memtrack::allocations(), 1u);
  EXPECT_EQ(plan.extents.runs(), extents);
}

TEST(AccessPlan, FactoryPlansReachTheCallerUncopied) {
  // A plan's fields are const, so a copy would duplicate its runs. A
  // factory's plan returned through a std::function (the shape of
  // core::PlanFactory) is built in place: the only allocation is the
  // generator's one reserve of the runs.
  workloads::StridedConfig cfg;
  cfg.block = 8;
  cfg.stride = 16;
  cfg.count = 100'000;
  const std::function<io::AccessPlan(int, int)> factory =
      [&](int rank, int nprocs) {
        return workloads::strided_plan(
            rank, nprocs, cfg,
            Payload::virtual_bytes(workloads::strided_bytes_per_rank(cfg)));
      };
  util::memtrack::reset();
  const io::AccessPlan plan = factory(0, 1);
  EXPECT_EQ(util::memtrack::allocations(), 1u);
  EXPECT_EQ(plan.extents.size(), cfg.count);
}

struct FileHarness {
  sim::ClusterConfig cluster_cfg;
  mpi::Machine machine;
  pfs::Pfs fs;
  node::MemoryManager memory;

  FileHarness()
      : cluster_cfg(make_cfg()),
        machine(cluster_cfg),
        fs(machine.cluster(), make_pfs()),
        memory(node::MemoryManager::uniform(cluster_cfg, 4 << 20)) {}

  static sim::ClusterConfig make_cfg() {
    sim::ClusterConfig c;
    c.num_nodes = 2;
    c.ranks_per_node = 2;
    return c;
  }
  static pfs::PfsConfig make_pfs() {
    pfs::PfsConfig p;
    p.num_osts = 4;
    p.stripe_unit = 4096;
    return p;
  }
};

TEST(MPIFile, ViewTilingAndConsumption) {
  FileHarness h;
  h.machine.run(4, [&](mpi::Rank& rank) {
    io::MPIFile file(rank, rank.world(), {&h.fs, &h.memory}, "/view",
                     /*create=*/true);
    // View: each rank owns 64 bytes out of every 256, at disp rank*64.
    const auto tile = mpi::Datatype::resized(mpi::Datatype::bytes(64), 0,
                                             256);
    file.set_view(static_cast<std::uint64_t>(rank.rank()) * 64, tile);
    std::vector<std::byte> data(128);
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<std::byte>(rank.rank() * 10 + 1);
    }
    // Two successive writes each consume one tile of the view.
    file.write_all(util::ConstPayload::of(data).slice(0, 64));
    file.write_all(util::ConstPayload::of(data).slice(64, 64));
    rank.world().barrier();
    // Rank r wrote [r*64, r*64+64) and [256+r*64, 256+r*64+64):
    // the file ends at 256 + 3*64 + 64 = 512.
    EXPECT_EQ(file.size(), 512u);
  });
}

TEST(MPIFile, ViewRoundTrip) {
  FileHarness h;
  h.machine.run(4, [&](mpi::Rank& rank) {
    io::MPIFile file(rank, rank.world(), {&h.fs, &h.memory}, "/viewrt",
                     /*create=*/true);
    const auto tile =
        mpi::Datatype::resized(mpi::Datatype::bytes(32), 0, 128);
    file.set_view(static_cast<std::uint64_t>(rank.rank()) * 32, tile);
    std::vector<std::byte> data(96);
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<std::byte>(rank.rank() + 3 * i);
    }
    file.write_all(util::ConstPayload::of(data));
    rank.world().barrier();
    // Fresh view to reset consumption, then read back.
    file.set_view(static_cast<std::uint64_t>(rank.rank()) * 32, tile);
    std::vector<std::byte> back(96);
    file.read_all(Payload::of(back));
    EXPECT_EQ(back, data);
  });
}

TEST(MPIFile, WriteAtReadAtIndependent) {
  FileHarness h;
  h.machine.run(2, [&](mpi::Rank& rank) {
    io::MPIFile file(rank, rank.world(), {&h.fs, &h.memory}, "/ind",
                     /*create=*/true);
    std::vector<std::byte> data(1000,
                                static_cast<std::byte>(rank.rank() + 1));
    file.write_at(static_cast<std::uint64_t>(rank.rank()) * 1000,
                  util::ConstPayload::of(data));
    rank.world().barrier();
    std::vector<std::byte> back(1000);
    const int other = 1 - rank.rank();
    file.read_at(static_cast<std::uint64_t>(other) * 1000,
                 Payload::of(back));
    for (const auto b : back) {
      EXPECT_EQ(b, static_cast<std::byte>(other + 1));
    }
  });
}

TEST(IndependentIO, SievingReadsBridgeGaps) {
  FileHarness h;
  metrics::CollectiveStats stats;
  h.machine.run(1, [&](mpi::Rank& rank) {
    io::CollContext ctx;
    ctx.rank = &rank;
    ctx.comm = &rank.world();
    ctx.fs = &h.fs;
    ctx.file = h.fs.create("/sieve");
    ctx.memory = &h.memory;
    ctx.stats = &stats;
    ctx.hints.ds_max_gap = 64;
    // Write a contiguous region, then read a strided subset.
    std::vector<std::byte> base(1024);
    for (std::size_t i = 0; i < base.size(); ++i) {
      base[i] = static_cast<std::byte>(i ^ 0x5a);
    }
    io::independent_write(
        ctx, io::AccessPlan(util::ExtentList::normalize({{0, 1024}}),
                            Payload::of(base)));

    std::vector<std::byte> out(4 * 32);
    std::vector<Extent> runs;
    for (int k = 0; k < 4; ++k) {
      runs.push_back(Extent{static_cast<std::uint64_t>(k) * 96, 32});
    }
    const io::AccessPlan rplan(util::ExtentList::normalize(std::move(runs)),
                               Payload::of(out));
    h.fs.reset_accounting();
    io::independent_read(ctx, rplan);
    // Gaps are 64 <= ds_max_gap: one sieving span, one request.
    EXPECT_EQ(h.fs.total_rpcs(), 1u);
    std::uint64_t off = 0;
    for (const auto& e : rplan.extents.runs()) {
      for (std::uint64_t i = 0; i < e.len; ++i) {
        EXPECT_EQ(out[off + i], base[e.offset + i]);
      }
      off += e.len;
    }
    EXPECT_GT(stats.rmw_bytes(), 0u);  // sieved waste recorded
  });
}

TEST(Workloads, IorSegmentedVsInterleavedLayout) {
  workloads::IorConfig w;
  w.block_size = 1024;
  w.transfer_size = 256;
  w.segments = 2;
  w.interleaved = false;
  const auto seg = workloads::ior_plan(1, 4, w,
                                       Payload::virtual_bytes(2048));
  ASSERT_EQ(seg.extents.size(), 2u);
  EXPECT_EQ(seg.extents.runs()[0], (Extent{1024, 1024}));
  EXPECT_EQ(seg.extents.runs()[1], (Extent{5120, 1024}));

  w.interleaved = true;
  const auto il = workloads::ior_plan(1, 4, w,
                                      Payload::virtual_bytes(2048));
  ASSERT_EQ(il.extents.size(), 8u);
  EXPECT_EQ(il.extents.runs()[0], (Extent{256, 256}));
  EXPECT_EQ(il.extents.runs()[1], (Extent{1280, 256}));
  EXPECT_EQ(workloads::ior_total_bytes(4, w), 8192u);
}

TEST(Workloads, CollperfCoversArrayExactly) {
  workloads::CollPerfConfig cfg;
  cfg.dims = {12, 10, 8};
  cfg.elem_size = 4;
  const int nprocs = 6;
  util::ExtentList cover;
  std::uint64_t total = 0;
  for (int r = 0; r < nprocs; ++r) {
    const auto bytes = workloads::collperf_bytes_per_rank(r, nprocs, cfg);
    const auto plan = workloads::collperf_plan(
        r, nprocs, cfg, Payload::virtual_bytes(bytes));
    total += plan.total_bytes();
    for (const auto& e : plan.extents.runs()) cover.add(e);
  }
  EXPECT_EQ(total, workloads::collperf_total_bytes(cfg));
  ASSERT_EQ(cover.size(), 1u);  // ranks tile the array with no gaps
  EXPECT_EQ(cover.runs()[0],
            (Extent{0, workloads::collperf_total_bytes(cfg)}));
}

TEST(Workloads, DimsCreateBalanced) {
  const auto d120 = workloads::dims_create3(120);
  EXPECT_EQ(d120[0] * d120[1] * d120[2], 120);
  EXPECT_LE(d120[0], 8);  // 6x5x4, not 120x1x1
  const auto d1 = workloads::dims_create3(1);
  EXPECT_EQ((d1), (std::array<int, 3>{1, 1, 1}));
  const auto d7 = workloads::dims_create3(7);
  EXPECT_EQ(d7[0] * d7[1] * d7[2], 7);
}

TEST(Workloads, PatternDeterministicAndSeedSensitive) {
  EXPECT_EQ(workloads::pattern_byte(1, 100),
            workloads::pattern_byte(1, 100));
  int diff = 0;
  for (std::uint64_t i = 0; i < 64; ++i) {
    if (workloads::pattern_byte(1, i) != workloads::pattern_byte(2, i)) {
      ++diff;
    }
  }
  EXPECT_GT(diff, 48);
}

TEST(Workloads, StridedPlanShape) {
  workloads::StridedConfig cfg;
  cfg.base = 100;
  cfg.block = 10;
  cfg.stride = 50;
  cfg.count = 3;
  const auto plan = workloads::strided_plan(
      1, 4, cfg, Payload::virtual_bytes(30));
  ASSERT_EQ(plan.extents.size(), 3u);
  EXPECT_EQ(plan.extents.runs()[0], (Extent{150, 10}));
  EXPECT_EQ(plan.extents.runs()[1], (Extent{350, 10}));
  EXPECT_EQ(plan.extents.runs()[2], (Extent{550, 10}));
}

}  // namespace
}  // namespace mcio
