// Message-matching semantics the machine's one match table must
// preserve: per-(destination, source, tag) FIFO order under
// heavy interleaving, unexpected/posted crossover on one key and across
// destinations, the end-of-run orphan sweep, allocation-free cell churn
// in a table sized by its live keys, collective-tag reservation at the
// 28-bit wrap boundary, and end-to-end determinism of a figure-shaped
// run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "metrics/collective_stats.h"
#include "mpi/comm.h"
#include "mpi/machine.h"
#include "util/memtrack.h"
#include "verify/observer.h"
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

// Collective tags are never reused, so match cells are born and die
// constantly. An emptied cell is erased by backward shift, so once warm
// the table neither rehashes nor allocates.
TEST(Matching, MatchTableChurnDoesNotAllocate) {
  constexpr std::uint32_t kLive = 8;
  MatchTable table;
  const auto key = [](std::uint32_t tag) {
    return MatchKey{tag % 5, tag % 7, tag};
  };
  const auto churn = [&](std::uint32_t from, std::uint32_t to) {
    for (std::uint32_t tag = from; tag < to; ++tag) {
      MatchTable::append(table.probe(key(tag)), MatchTable::kMessages, tag);
      if (tag >= kLive) {
        MatchTable::Cell& old = table.probe(key(tag - kLive));
        EXPECT_EQ(table.pop(old, kNone), tag - kLive);
      }
    }
  };
  churn(0, 1000);  // warm: the table
  util::memtrack::reset();
  churn(1000, 20000);
  EXPECT_EQ(util::memtrack::allocations(), 0u);
  int live = 0;
  table.for_each([&](const MatchTable::Cell& c) {
    ++live;
    EXPECT_TRUE(c.waits(MatchTable::kMessages));
    EXPECT_GE(c.tag, 20000 - kLive);
    EXPECT_EQ(c.head, c.tag);
    EXPECT_EQ(c.tail, c.tag);
  });
  EXPECT_EQ(live, static_cast<int>(kLive));
}

// The table holds only live keys: churning many keys through a steady
// set of L live ones peaks at the smallest power-of-two table that keeps
// L cells at <= 5/8 load, plus the half-size array alive while it last
// doubled, plus malloc's rounding of under 16 B per array. Dead keys
// would inflate it.
TEST(Matching, MatchTableSizedByLiveKeys) {
  for (const std::uint32_t live : {30u, 1000u}) {
    util::memtrack::reset();
    {
      MatchTable table;
      for (std::uint32_t tag = 0; tag < 20000 + live; ++tag) {
        MatchTable::append(table.probe(MatchKey{tag % 5, tag % 7, tag}),
                           MatchTable::kMessages, tag);
        if (tag < live) continue;
        const std::uint32_t old = tag - live;
        MatchTable::Cell& c = table.probe(MatchKey{old % 5, old % 7, old});
        EXPECT_EQ(table.pop(c, kNone), old);
      }
      std::uint32_t left = 0;
      table.for_each([&](const MatchTable::Cell& c) {
        ++left;
        EXPECT_EQ(c.head, c.tag);
      });
      EXPECT_EQ(left, live);
    }
    std::size_t cells = 64;
    while (8 * live > 5 * cells) cells *= 2;
    const std::size_t grown = cells > 64 ? cells / 2 : 0;
    const std::size_t arrays = grown > 0 ? 2 : 1;
    EXPECT_LE(util::memtrack::peak_bytes(),
              (cells + grown) * sizeof(MatchTable::Cell) + 16 * arrays)
        << live << " live keys";
  }
}

// Keys that differ only by destination never cross-match: one source
// sends the same tag to every rank before any receive is posted, so every
// destination's messages queue as unexpected under one (src, tag).
TEST(Matching, DestinationsNeverCrossMatch) {
  Machine machine(small_cluster(2, 4));
  machine.run(8, [](Rank& rank) {
    constexpr int kRounds = 3;
    Comm& world = rank.world();
    if (rank.rank() == 0) {
      for (int r = 0; r < kRounds; ++r) {
        for (int dst = 1; dst < world.size(); ++dst) {
          send_i32(world, dst, 21, dst * 100 + r);
        }
      }
    }
    world.barrier();  // every send above precedes every receive below
    if (rank.rank() != 0) {
      for (int r = 0; r < kRounds; ++r) {
        EXPECT_EQ(recv_i32(world, 0, 21), rank.rank() * 100 + r);
      }
    }
  });
}

/// Counts how one key's messages were matched.
struct KeyCensus : verify::Observer {
  int tag = 0;
  int matched = 0;
  int unexpected = 0;
  void on_message_delivered(std::uint64_t, int, int, int t, std::uint64_t,
                            bool was_matched) override {
    if (t != tag) return;
    ++(was_matched ? matched : unexpected);
  }
};

// One key flips sides over many rounds: its receives wait in the cell,
// then its messages do, and back, with one to three waiters each time.
TEST(Matching, OneKeyFlipsSidesOverManyRounds) {
  constexpr int kTag = 5;
  constexpr int kRounds = 40;
  KeyCensus census;
  census.tag = kTag;
  Machine machine(small_cluster(2, 1));
  machine.set_observer(&census);
  machine.run(2, [](Rank& rank) {
    Comm& world = rank.world();
    for (int round = 0; round < kRounds; ++round) {
      const int n = 1 + round % 3;
      const bool posted_first = round % 2 == 0;
      if (rank.rank() == 0) {
        if (posted_first) world.barrier();
        for (int i = 0; i < n; ++i) send_i32(world, 1, kTag, round * 10 + i);
        if (!posted_first) world.barrier();
      } else {
        std::vector<std::int32_t> got(static_cast<std::size_t>(n), -1);
        std::vector<Request> reqs;
        if (!posted_first) world.barrier();
        for (std::int32_t& v : got) {
          reqs.push_back(world.irecv(
              0, kTag,
              util::Payload::real(reinterpret_cast<std::byte*>(&v),
                                  sizeof(v))));
        }
        if (posted_first) world.barrier();
        world.waitall(reqs);
        for (int i = 0; i < n; ++i) {
          EXPECT_EQ(got[static_cast<std::size_t>(i)], round * 10 + i);
        }
      }
      world.barrier();
    }
  });
  // Rounds 0, 2, ... post first; rounds 1, 3, ... send first.
  int posted = 0;
  int queued = 0;
  for (int round = 0; round < kRounds; ++round) {
    (round % 2 == 0 ? posted : queued) += 1 + round % 3;
  }
  EXPECT_EQ(census.matched, posted);
  EXPECT_EQ(census.unexpected, queued);
}

/// Records the end-of-run orphan sweep, in the order it reports.
struct OrphanLog : verify::Observer {
  std::vector<std::string> lines;
  void on_orphan_message(int dst, std::uint64_t, int src, int tag,
                         std::uint64_t bytes) override {
    lines.push_back("message " + std::to_string(src) + "->" +
                    std::to_string(dst) + " tag " + std::to_string(tag) +
                    " " + std::to_string(bytes) + " B");
  }
  void on_orphan_recv(int dst, std::uint64_t, int src, int tag) override {
    lines.push_back("recv " + std::to_string(src) + "->" +
                    std::to_string(dst) + " tag " + std::to_string(tag));
  }
};

// Both orphan kinds on several destinations: each leftover message and
// each unmatched receive is reported exactly once, and two runs report
// them in the same order.
TEST(Matching, OrphanSweepReportsEachLeftoverOnce) {
  const auto sweep = [] {
    OrphanLog log;
    Machine machine(small_cluster(2, 2));
    machine.set_observer(&log);
    machine.run(4, [](Rank& rank) {
      Comm& world = rank.world();
      const std::byte b[8] = {};
      std::byte buf[8];
      if (rank.rank() == 0) {
        // Two messages to each peer on tag 7; nobody receives them.
        for (int dst = 1; dst < 4; ++dst) {
          for (int i = 0; i < 2; ++i) {
            world.send(dst, 7,
                       util::ConstPayload::real(
                           b, static_cast<std::size_t>(dst + i)));
          }
        }
      } else {
        // One receive per peer that no message matches; rank 2 posts two.
        Request r = world.irecv(0, 9, util::Payload::real(buf, sizeof buf));
        (void)r;
        if (rank.rank() == 2) {
          Request r2 =
              world.irecv(3, 9, util::Payload::real(buf, sizeof buf));
          (void)r2;
        }
      }
    });
    return log.lines;
  };
  const std::vector<std::string> first = sweep();
  std::vector<std::string> want;
  for (int dst = 1; dst < 4; ++dst) {
    for (int i = 0; i < 2; ++i) {
      want.push_back("message 0->" + std::to_string(dst) + " tag 7 " +
                     std::to_string(dst + i) + " B");
    }
    want.push_back("recv 0->" + std::to_string(dst) + " tag 9");
  }
  want.push_back("recv 3->2 tag 9");
  std::vector<std::string> sorted = first;
  std::sort(sorted.begin(), sorted.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(sorted, want);
  EXPECT_EQ(sweep(), first);
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
  const int nranks = 6;
  workloads::IorConfig w;
  w.block_size = 256ull << 10;
  w.transfer_size = 32ull << 10;
  w.segments = 1;
  w.interleaved = true;

  for (const std::uint64_t mem : {std::uint64_t{1} << 20,
                                  std::uint64_t{256} << 10}) {
    for (const core::DriverKind kind :
         {core::DriverKind::kTwoPhase, core::DriverKind::kMccio}) {
      core::StackConfig config;
      config.cluster = small_cluster(2, 3);
      config.pfs.num_osts = 4;
      config.pfs.stripe_unit = 64ull << 10;
      config.pfs.store_data = false;
      config.mem_mean = mem;
      core::SimStack stack(config);
      io::Hints hints;
      hints.cb_buffer_size = mem;
      const core::WriteReadResult r = core::run_write_read(
          stack, kind, {}, hints, nranks, [&](int rank, int p) {
            return workloads::ior_plan(
                rank, p, w,
                util::Payload::virtual_bytes(
                    workloads::ior_bytes_per_rank(w)));
          });
      out << mem << ' ' << core::driver_name(kind) << ' '
          << r.finish_times[0] << ' ' << r.write_bw << ' ' << r.read_bw;
      for (const metrics::CollectiveStats* s :
           {&r.write_stats, &r.read_stats}) {
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
