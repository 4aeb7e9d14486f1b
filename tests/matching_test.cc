// Message-matching semantics the O(1) endpoint must preserve: per-
// (communicator, source, tag) FIFO order under heavy interleaving,
// unexpected/posted crossover, allocation-free bucket churn,
// collective-tag reservation at the 28-bit wrap boundary, and end-to-end
// determinism of a figure-shaped run.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iomanip>
#include <sstream>
#include <vector>

#include "core/mccio_driver.h"
#include "io/mpi_file.h"
#include "io/two_phase_driver.h"
#include "metrics/collective_stats.h"
#include "mpi/comm.h"
#include "mpi/machine.h"
#include "node/memory.h"
#include "pfs/pfs.h"
#include "util/memtrack.h"
#include "workloads/ior.h"

namespace mcio::mpi {
namespace {

sim::ClusterConfig small_cluster(int nodes = 2, int ppn = 2) {
  sim::ClusterConfig c;
  c.num_nodes = nodes;
  c.ranks_per_node = ppn;
  return c;
}

void send_i32(Comm& comm, int dst, int tag, std::int32_t v) {
  comm.send(dst, tag,
            util::ConstPayload::real(
                reinterpret_cast<const std::byte*>(&v), sizeof(v)));
}

std::int32_t recv_i32(Comm& comm, int src, int tag,
                      Status* status = nullptr) {
  std::int32_t v = -1;
  comm.recv(src, tag,
            util::Payload::real(reinterpret_cast<std::byte*>(&v),
                                sizeof(v)),
            status);
  return v;
}

// Collective tags are never reused, so matching buckets are born and die
// constantly and tombstones force periodic same-size rehashes. Once warm,
// the table rehashes through its retained spare without allocating.
TEST(Matching, MatchMapChurnDoesNotAllocate) {
  struct Fifo {
    std::uint32_t head = 0;
    std::uint32_t tail = 0;
  };
  constexpr int kLive = 8;
  MatchMap<Fifo> map;
  const auto key = [](int tag) { return MatchKey{1, tag % 7, tag}; };
  const auto churn = [&](int from, int to) {
    for (int tag = from; tag < to; ++tag) {
      map.get_or_create(key(tag)).head = static_cast<std::uint32_t>(tag);
      if (tag >= kLive) map.erase(key(tag - kLive));
    }
  };
  churn(0, 1000);  // warm: the table and the rehash spare
  util::memtrack::reset();
  churn(1000, 20000);
  EXPECT_EQ(util::memtrack::allocations(), 0u);
  for (int tag = 20000 - kLive; tag < 20000; ++tag) {
    const Fifo* f = map.find(key(tag));
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->head, static_cast<std::uint32_t>(tag));
  }
  EXPECT_EQ(map.find(key(20000 - kLive - 1)), nullptr);
}

// Many live (source, tag) keys at once, receives posted in a different
// order than the sends: each key's stream must still arrive FIFO.
TEST(Matching, FifoPerSourceAndTagAcrossManyKeys) {
  Machine machine(small_cluster(2, 2));
  machine.run(4, [](Rank& rank) {
    constexpr int kTags = 8;
    constexpr int kRounds = 5;
    Comm& world = rank.world();
    if (rank.rank() != 3) {
      for (int r = 0; r < kRounds; ++r) {
        for (int t = 0; t < kTags; ++t) {
          send_i32(world, 3, t, rank.rank() * 10000 + t * 100 + r);
        }
      }
    } else {
      // Drain tags high-to-low and sources in reverse, so nearly every
      // receive has to dig past newer messages of sibling keys.
      for (int t = kTags - 1; t >= 0; --t) {
        for (int src = 2; src >= 0; --src) {
          for (int r = 0; r < kRounds; ++r) {
            EXPECT_EQ(recv_i32(world, src, t),
                      src * 10000 + t * 100 + r);
          }
        }
      }
    }
  });
}

// Both crossover directions: a message parked as unexpected before any
// receive exists, and a receive posted before the message is sent.
TEST(Matching, UnexpectedAndPostedCrossover) {
  Machine machine(small_cluster());
  machine.run(2, [](Rank& rank) {
    Comm& world = rank.world();
    if (rank.rank() == 0) {
      send_i32(world, 1, 11, 111);  // lands unexpected
      world.barrier();
      world.barrier();  // peer's irecv is posted before this barrier
      send_i32(world, 1, 12, 222);
    } else {
      world.barrier();  // tag 11 already sent: unexpected path
      Status st;
      EXPECT_EQ(recv_i32(world, 0, 11, &st), 111);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 11);
      std::int32_t v = -1;
      Request r = world.irecv(0, 12,
                              util::Payload::real(
                                  reinterpret_cast<std::byte*>(&v),
                                  sizeof(v)));
      world.barrier();  // tag 12 sent only after this: posted path
      world.wait(r, &st);
      EXPECT_EQ(v, 222);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 12);
    }
  });
}

// A reserved block may not straddle the 28-bit collective-tag wrap:
// its tail would alias tags from the start of the window.
TEST(Matching, ReserveTagsSkipsWindowInsteadOfWrapping) {
  Machine machine(small_cluster(1, 1));
  machine.run(1, [](Rank& rank) {
    Comm& world = rank.world();
    constexpr std::int64_t kTagSpace = 1ll << 28;
    const int b1 = world.reserve_tags(static_cast<int>(kTagSpace - 5));
    EXPECT_EQ(b1 & 0x0fffffff, 0);
    // 10 tags no longer fit before the wrap; the block must start in a
    // fresh window, not straddle it.
    const int b2 = world.reserve_tags(10);
    const std::int64_t off = b2 & 0x0fffffff;
    EXPECT_EQ(off, 0);
    EXPECT_LE(off + 10, kTagSpace);
  });
}

// One figure-shaped configuration (IOR interleaved, both drivers, two
// memory points), formatted with full precision. Two fresh runs must be
// byte-identical — the determinism contract every fast-path change in
// the simulator has to keep.
std::string figure_shaped_run() {
  std::ostringstream out;
  out << std::hexfloat;
  const sim::ClusterConfig cluster = small_cluster(2, 3);
  const int nranks = 6;
  workloads::IorConfig w;
  w.block_size = 256ull << 10;
  w.transfer_size = 32ull << 10;
  w.segments = 1;
  w.interleaved = true;

  for (const std::uint64_t mem : {std::uint64_t{1} << 20,
                                  std::uint64_t{256} << 10}) {
    for (const bool use_mccio : {false, true}) {
      Machine machine(cluster);
      pfs::PfsConfig pcfg;
      pcfg.num_osts = 4;
      pcfg.stripe_unit = 64ull << 10;
      pcfg.store_data = false;
      pfs::Pfs fs(machine.cluster(), pcfg);
      node::MemoryVariance var;
      var.relative_stdev = 0.5;
      node::MemoryManager memory(cluster, mem, var, 20120512);

      io::TwoPhaseDriver two_phase;
      core::MccioDriver mccio{core::MccioConfig{}};
      io::CollectiveDriver* driver =
          use_mccio ? static_cast<io::CollectiveDriver*>(&mccio)
                    : &two_phase;
      io::Hints hints;
      hints.cb_buffer_size = mem;

      metrics::CollectiveStats wstats, rstats;
      machine.run(nranks, [&](Rank& rank) {
        io::AccessPlan plan = workloads::ior_plan(
            rank.rank(), nranks, w,
            util::Payload::virtual_bytes(workloads::ior_bytes_per_rank(w)));
        io::MPIFile file(rank, rank.world(),
                         io::MPIFile::Services{&fs, &memory}, "/det",
                         /*create=*/true, hints, driver);
        file.set_stats(&wstats);
        file.write_all_plan(plan);
        rank.world().barrier();
        if (rank.rank() == 0) fs.flush_locality();
        rank.world().barrier();
        file.set_stats(&rstats);
        file.read_all_plan(plan);
        rank.world().barrier();
        if (rank.rank() == 0) {
          out << mem << ' ' << use_mccio << ' ' << rank.actor().now();
        }
      });
      for (const metrics::CollectiveStats* s : {&wstats, &rstats}) {
        out << ' ' << s->num_aggregators() << ' ' << s->num_groups()
            << ' ' << s->shuffle_intra_node() << ' '
            << s->shuffle_inter_node() << ' ' << s->io_bytes() << ' '
            << s->rmw_bytes() << ' ' << s->buffer_stats().stdev();
      }
      out << '\n';
    }
  }
  return out.str();
}

TEST(Matching, FigureShapedRunIsDeterministic) {
  const std::string first = figure_shaped_run();
  const std::string second = figure_shaped_run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace mcio::mpi
