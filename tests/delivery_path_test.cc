// The scheduler-to-endpoint message path, by deterministic counts: once
// warm, a virtual-payload message storm makes (almost) no heap
// allocation per delivered message, the scheduler accounts for every
// slice exactly once, either popped from the event heap or continued in
// place, no message ever enters the heap, and receives add slices only
// where they park.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "mpi/comm.h"
#include "mpi/machine.h"
#include "util/memtrack.h"
#include "verify/observer.h"

namespace mcio::mpi {
namespace {

/// Counts slices and deliveries; allocates nothing in its hooks.
class CountingObserver : public verify::Observer {
 public:
  void on_actor_resumed(int, double) override { ++slices; }
  void on_message_delivered(std::uint64_t, int, int, int, std::uint64_t,
                            bool) override {
    ++deliveries;
  }

  std::uint64_t slices = 0;
  std::uint64_t deliveries = 0;
};

TEST(DeliveryPath, NoHeapAllocationPerMessage) {
  constexpr int kNodes = 8;
  constexpr int kRanks = 64;
  constexpr int kPeers = 4;
  constexpr int kWarmRounds = 8;
  constexpr int kRounds = 48;
  constexpr std::uint64_t kBytes = 4096;
  sim::ClusterConfig cluster;
  cluster.num_nodes = kNodes;
  cluster.ranks_per_node = kRanks / kNodes;
  Machine machine(cluster);
  CountingObserver counts;
  machine.set_observer(&counts);

  // The measured window opens when the first rank finishes warming up
  // and closes when the last rank finishes the storm (host order).
  int warmed = 0;
  int finished = 0;
  std::uint64_t allocs_before = 0;
  std::uint64_t allocs_after = 0;
  std::uint64_t msgs_before = 0;
  std::uint64_t msgs_after = 0;
  machine.run(kRanks, [&](Rank& rank) {
    Comm& world = rank.world();
    const int me = rank.rank();
    // Each round uses a fresh tag, so matching buckets are born and die
    // every round, as collective tags do.
    const auto round = [&](int tag) {
      std::array<Request, kPeers> reqs;
      for (int j = 0; j < kPeers; ++j) {
        const int src = (me - 9 * (j + 1) + kPeers * kRanks) % kRanks;
        reqs[static_cast<std::size_t>(j)] =
            world.irecv(src, tag, util::Payload::virtual_bytes(kBytes));
      }
      for (int j = 0; j < kPeers; ++j) {
        world.send((me + 9 * (j + 1)) % kRanks, tag,
                   util::ConstPayload::virtual_bytes(kBytes));
      }
      world.waitall(reqs);
    };
    for (int r = 0; r < kWarmRounds; ++r) round(r);
    if (warmed++ == 0) {
      allocs_before = util::memtrack::allocations();
      msgs_before = counts.deliveries;
    }
    for (int r = kWarmRounds; r < kWarmRounds + kRounds; ++r) round(r);
    if (++finished == kRanks) {
      allocs_after = util::memtrack::allocations();
      msgs_after = counts.deliveries;
    }
  });

  const std::uint64_t msgs = msgs_after - msgs_before;
  const std::uint64_t allocs = allocs_after - allocs_before;
  EXPECT_GE(msgs, 10000u);
  EXPECT_LT(static_cast<double>(allocs), 0.01 * static_cast<double>(msgs))
      << allocs << " heap allocations for " << msgs << " messages";

  // Every slice resumed went through the heap exactly once; deliveries
  // are matched at send and pop nothing, so the heap never holds more
  // than one slice per rank.
  EXPECT_EQ(counts.deliveries, std::uint64_t{kRanks} * kPeers *
                                   (kWarmRounds + kRounds));
  EXPECT_EQ(machine.heap_pops(), counts.slices);
  EXPECT_LE(machine.heap_high_water(), std::size_t{kRanks});
}

/// Slices the running engine has executed so far.
std::uint64_t slices_so_far(Rank& rank) {
  return rank.machine().engine().heap_pops();
}

TEST(DeliveryPath, PostingAndMatchedWaitsAddNoSlices) {
  // A receive neither yields to be posted nor to complete a message
  // already matched, even one arriving past the receiver's clock: the
  // slice count does not move. Only a wait on a message not yet sent
  // parks.
  sim::ClusterConfig cluster;
  cluster.num_nodes = 2;
  cluster.ranks_per_node = 2;
  Machine machine(cluster);
  const auto msg = util::ConstPayload::virtual_bytes(4096);
  const auto buf = util::Payload::virtual_bytes(4096);
  std::uint64_t before = 0;
  std::uint64_t posted = 0;
  std::uint64_t waited = 0;
  std::uint64_t parked = 0;
  Status early;
  machine.run(4, [&](Rank& rank) {
    Comm& c = rank.world();
    if (rank.rank() == 0) {
      c.send(2, 1, msg);  // runs first, so it queues as unexpected
    } else if (rank.rank() == 2) {
      before = slices_so_far(rank);
      Request queued = c.irecv(0, 1, buf);
      Request pending = c.irecv(3, 1, buf);
      posted = slices_so_far(rank);
      c.wait(queued, &early);
      waited = slices_so_far(rank);
      c.wait(pending);
      parked = slices_so_far(rank);
    } else if (rank.rank() == 3) {
      c.send(2, 1, msg);
    }
  });
  EXPECT_EQ(posted, before);
  EXPECT_EQ(waited, before);
  EXPECT_GT(early.arrival, 0.0);  // arrived past the receiver's clock 0
  EXPECT_GT(parked, waited);
}

TEST(DeliveryPath, SlicesPerMessage) {
  // The storm of NoHeapAllocationPerMessage, counted: the slices a run
  // executes per delivered message stay at their measured value. A
  // sender yields once per message, before its pass; a receiver only
  // parks on a receive whose message is not sent yet.
  constexpr int kNodes = 8;
  constexpr int kRanks = 64;
  constexpr int kPeers = 4;
  constexpr int kRounds = 56;
  constexpr std::uint64_t kBytes = 4096;
  sim::ClusterConfig cluster;
  cluster.num_nodes = kNodes;
  cluster.ranks_per_node = kRanks / kNodes;
  Machine machine(cluster);
  CountingObserver counts;
  machine.set_observer(&counts);
  machine.run(kRanks, [&](Rank& rank) {
    Comm& world = rank.world();
    const int me = rank.rank();
    for (int tag = 0; tag < kRounds; ++tag) {
      std::array<Request, kPeers> reqs;
      for (int j = 0; j < kPeers; ++j) {
        const int src = (me - 9 * (j + 1) + kPeers * kRanks) % kRanks;
        reqs[static_cast<std::size_t>(j)] =
            world.irecv(src, tag, util::Payload::virtual_bytes(kBytes));
      }
      for (int j = 0; j < kPeers; ++j) {
        world.send((me + 9 * (j + 1)) % kRanks, tag,
                   util::ConstPayload::virtual_bytes(kBytes));
      }
      world.waitall(reqs);
    }
  });
  ASSERT_EQ(counts.deliveries, std::uint64_t{kRanks} * kPeers * kRounds);
  EXPECT_EQ(machine.heap_pops(), counts.slices);
  // Measured: 16,884 slices for 14,336 messages (36,745 when a receive
  // yielded to be posted and to wait on a matched message).
  EXPECT_LE(counts.slices, 16884u)
      << counts.slices << " slices for " << counts.deliveries << " messages";
}

}  // namespace
}  // namespace mcio::mpi
