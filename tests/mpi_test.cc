// Message passing: point-to-point semantics, matching, collectives on
// awkward communicator sizes, split/dup, and transport timing.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "mpi/comm.h"
#include "mpi/machine.h"

namespace mcio::mpi {
namespace {

sim::ClusterConfig small_cluster(int nodes = 3, int ppn = 4) {
  sim::ClusterConfig c;
  c.num_nodes = nodes;
  c.ranks_per_node = ppn;
  return c;
}

TEST(PointToPoint, SendRecvMoveBytes) {
  Machine machine(small_cluster());
  machine.run(2, [](Rank& rank) {
    if (rank.rank() == 0) {
      const std::uint64_t v = 0xdeadbeef;
      rank.world().send(1, 5,
                        util::ConstPayload::real(
                            reinterpret_cast<const std::byte*>(&v),
                            sizeof(v)));
    } else {
      std::uint64_t v = 0;
      Status st;
      rank.world().recv(0, 5,
                        util::Payload::real(
                            reinterpret_cast<std::byte*>(&v), sizeof(v)),
                        &st);
      EXPECT_EQ(v, 0xdeadbeefull);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 5);
      EXPECT_EQ(st.bytes, sizeof(v));
      EXPECT_GT(st.arrival, 0.0);
    }
  });
}

TEST(PointToPoint, FifoPerSourceAndTag) {
  Machine machine(small_cluster());
  machine.run(2, [](Rank& rank) {
    constexpr int kN = 16;
    if (rank.rank() == 0) {
      for (int i = 0; i < kN; ++i) {
        const std::int32_t v = i;
        rank.world().send(1, 9,
                          util::ConstPayload::real(
                              reinterpret_cast<const std::byte*>(&v),
                              sizeof(v)));
      }
    } else {
      for (int i = 0; i < kN; ++i) {
        std::int32_t v = -1;
        rank.world().recv(0, 9,
                          util::Payload::real(
                              reinterpret_cast<std::byte*>(&v),
                              sizeof(v)));
        EXPECT_EQ(v, i);  // arrival order preserved
      }
    }
  });
}

TEST(PointToPoint, TagSelective) {
  Machine machine(small_cluster());
  machine.run(2, [](Rank& rank) {
    if (rank.rank() == 0) {
      const std::int32_t a = 1, b = 2;
      rank.world().send(1, 100,
                        util::ConstPayload::real(
                            reinterpret_cast<const std::byte*>(&a),
                            sizeof(a)));
      rank.world().send(1, 200,
                        util::ConstPayload::real(
                            reinterpret_cast<const std::byte*>(&b),
                            sizeof(b)));
    } else {
      std::int32_t v = 0;
      // Receive the tag-200 message first, out of arrival order.
      rank.world().recv(0, 200,
                        util::Payload::real(
                            reinterpret_cast<std::byte*>(&v), sizeof(v)));
      EXPECT_EQ(v, 2);
      rank.world().recv(0, 100,
                        util::Payload::real(
                            reinterpret_cast<std::byte*>(&v), sizeof(v)));
      EXPECT_EQ(v, 1);
    }
  });
}

TEST(PointToPoint, AnySource) {
  Machine machine(small_cluster());
  machine.run(4, [](Rank& rank) {
    if (rank.rank() != 0) {
      const std::int32_t v = rank.rank();
      rank.world().send(0, 3,
                        util::ConstPayload::real(
                            reinterpret_cast<const std::byte*>(&v),
                            sizeof(v)));
    } else {
      bool seen[4] = {true, false, false, false};
      for (int i = 0; i < 3; ++i) {
        std::int32_t v = 0;
        Status st;
        rank.world().recv(kAnySource, 3,
                          util::Payload::real(
                              reinterpret_cast<std::byte*>(&v),
                              sizeof(v)),
                          &st);
        EXPECT_EQ(st.source, v);
        seen[v] = true;
      }
      EXPECT_TRUE(seen[1] && seen[2] && seen[3]);
    }
  });
}

TEST(PointToPoint, IrecvBeforeAndAfterSend) {
  Machine machine(small_cluster());
  machine.run(2, [](Rank& rank) {
    if (rank.rank() == 0) {
      std::int32_t early = 0, late = 0;
      Request r_early = rank.world().irecv(
          1, 1,
          util::Payload::real(reinterpret_cast<std::byte*>(&early),
                              sizeof(early)));
      // Wait for both; the second irecv is posted after arrival.
      rank.world().wait(r_early);
      EXPECT_EQ(early, 11);
      Request r_late = rank.world().irecv(
          1, 2,
          util::Payload::real(reinterpret_cast<std::byte*>(&late),
                              sizeof(late)));
      EXPECT_TRUE(rank.world().test(r_late));
      rank.world().wait(r_late);
      EXPECT_EQ(late, 22);
    } else {
      const std::int32_t a = 11, b = 22;
      rank.world().send(0, 1,
                        util::ConstPayload::real(
                            reinterpret_cast<const std::byte*>(&a),
                            sizeof(a)));
      rank.world().send(0, 2,
                        util::ConstPayload::real(
                            reinterpret_cast<const std::byte*>(&b),
                            sizeof(b)));
    }
  });
}

TEST(PointToPoint, BlobRoundTrip) {
  Machine machine(small_cluster());
  machine.run(2, [](Rank& rank) {
    if (rank.rank() == 0) {
      std::vector<std::byte> blob(1000);
      for (std::size_t i = 0; i < blob.size(); ++i) {
        blob[i] = static_cast<std::byte>(i & 0xff);
      }
      rank.world().send_blob(1, 7, blob);
      rank.world().send_blob(1, 7, {});  // empty blob
    } else {
      const auto blob = rank.world().recv_blob(0, 7);
      ASSERT_EQ(blob.size(), 1000u);
      EXPECT_EQ(blob[999], static_cast<std::byte>(999 & 0xff));
      EXPECT_TRUE(rank.world().recv_blob(0, 7).empty());
    }
  });
}

TEST(Transport, InterNodeSlowerThanIntraNode) {
  Machine machine(small_cluster(2, 2));
  sim::SimTime intra = 0.0, inter = 0.0;
  machine.run(4, [&](Rank& rank) {
    std::vector<std::byte> buf(1 << 20);
    if (rank.rank() == 0) {
      rank.world().send(1, 1, util::ConstPayload::of(buf));  // same node
      rank.world().send(2, 2, util::ConstPayload::of(buf));  // other node
    } else if (rank.rank() == 1) {
      Status st;
      rank.world().recv(0, 1, util::Payload::of(buf), &st);
      intra = st.arrival;
    } else if (rank.rank() == 2) {
      Status st;
      rank.world().recv(0, 2, util::Payload::of(buf), &st);
      inter = st.arrival;
    }
  });
  EXPECT_GT(intra, 0.0);
  EXPECT_GT(inter, intra);  // NIC (1.5 GB/s) beats membus (25 GB/s)? No:
  // inter-node crosses two NIC queues at 1.5 GB/s, intra-node one membus
  // pass at 25 GB/s, so inter must be slower.
}

TEST(Transport, TransferChargesNicEgressThenIngress) {
  // Inter-node: the sender's NIC egress (with the wire latency), then the
  // receiver's NIC ingress, where a second sender queues. Intra-node:
  // one pass over the node's memory bus, no NIC involved.
  Machine machine(small_cluster(3, 4));
  const sim::ClusterConfig& cfg = machine.config();
  const std::uint64_t bytes = 1 << 20;
  const double nic_pass = static_cast<double>(bytes) / cfg.nic_bandwidth;
  const sim::SimTime first = machine.transfer(0, 1, bytes, 0.0);
  EXPECT_NEAR(first, cfg.nic_latency + 2 * nic_pass, 1e-15);
  const sim::SimTime second = machine.transfer(2, 1, bytes, 0.0);
  EXPECT_NEAR(second, first + nic_pass, 1e-15);
  const sim::SimTime local = machine.transfer(0, 0, bytes, 0.0);
  EXPECT_NEAR(local, static_cast<double>(bytes) / cfg.membus_bandwidth,
              1e-15);
  EXPECT_EQ(machine.cluster().nic_out(0).total_requests(), 1u);
  EXPECT_EQ(machine.cluster().nic_in(1).total_requests(), 2u);
  EXPECT_EQ(machine.cluster().membus(0).total_requests(), 1u);
}

class CollectiveSizes : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveSizes, BarrierCompletes) {
  const int p = GetParam();
  Machine machine(small_cluster(4, 4));
  machine.run(p, [](Rank& rank) {
    for (int i = 0; i < 3; ++i) rank.world().barrier();
  });
}

TEST_P(CollectiveSizes, BcastFromEveryRoot) {
  const int p = GetParam();
  Machine machine(small_cluster(4, 4));
  machine.run(p, [p](Rank& rank) {
    for (int root = 0; root < p; ++root) {
      std::int64_t v = rank.rank() == root ? 1000 + root : -1;
      rank.world().bcast(v, root);
      EXPECT_EQ(v, 1000 + root);
    }
  });
}

TEST_P(CollectiveSizes, GatherAndAllgather) {
  const int p = GetParam();
  Machine machine(small_cluster(4, 4));
  machine.run(p, [p](Rank& rank) {
    const auto gathered = rank.world().gather(rank.rank() * 3, 0);
    if (rank.rank() == 0) {
      ASSERT_EQ(gathered.size(), static_cast<std::size_t>(p));
      for (int i = 0; i < p; ++i) {
        EXPECT_EQ(gathered[static_cast<std::size_t>(i)], i * 3);
      }
    } else {
      EXPECT_TRUE(gathered.empty());
    }
    const auto all = rank.world().allgather(rank.rank() + 100);
    ASSERT_EQ(all->size(), static_cast<std::size_t>(p));
    for (int i = 0; i < p; ++i) {
      EXPECT_EQ((*all)[static_cast<std::size_t>(i)], i + 100);
    }
  });
}

TEST_P(CollectiveSizes, AllgatherVariableSizes) {
  const int p = GetParam();
  Machine machine(small_cluster(4, 4));
  machine.run(p, [p](Rank& rank) {
    std::vector<std::int32_t> mine(
        static_cast<std::size_t>(rank.rank() % 3), rank.rank());
    const auto all = rank.world().allgatherv(
        std::span<const std::int32_t>(mine));
    ASSERT_EQ(all.size(), static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
      const auto& v = all[static_cast<std::size_t>(r)];
      ASSERT_EQ(v.size(), static_cast<std::size_t>(r % 3));
      for (const auto x : v) EXPECT_EQ(x, r);
    }
  });
}

TEST_P(CollectiveSizes, Allreduce) {
  const int p = GetParam();
  Machine machine(small_cluster(4, 4));
  machine.run(p, [p](Rank& rank) {
    EXPECT_EQ(rank.world().allreduce_max(
                  static_cast<std::int64_t>(rank.rank())),
              p - 1);
    EXPECT_EQ(rank.world().allreduce_sum(std::int64_t{1}), p);
    EXPECT_DOUBLE_EQ(rank.world().allreduce_sum(0.5), 0.5 * p);
    EXPECT_DOUBLE_EQ(
        rank.world().allreduce_max(static_cast<double>(rank.rank())),
        static_cast<double>(p - 1));
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollectiveSizes,
                         ::testing::Values(1, 2, 3, 5, 7, 12, 16));

TEST(Comm, SplitByParity) {
  Machine machine(small_cluster());
  machine.run(8, [](Rank& rank) {
    Comm sub = rank.world().split(rank.rank() % 2, rank.rank());
    EXPECT_EQ(sub.size(), 4);
    EXPECT_EQ(sub.world_rank(sub.rank()), rank.rank());
    // Sub-communicator collectives work and stay isolated.
    const auto all = sub.allgather(rank.rank());
    for (const int w : *all) EXPECT_EQ(w % 2, rank.rank() % 2);
  });
}

TEST(Comm, SplitByKeyReordering) {
  Machine machine(small_cluster());
  machine.run(4, [](Rank& rank) {
    // Reverse order via descending keys.
    Comm sub = rank.world().split(0, -rank.rank());
    EXPECT_EQ(sub.rank(), 3 - rank.rank());
  });
}

TEST(Comm, DupIsolatesTagSpace) {
  Machine machine(small_cluster());
  machine.run(3, [](Rank& rank) {
    Comm dup = rank.world().dup();
    EXPECT_EQ(dup.size(), rank.world().size());
    dup.barrier();
    const auto all = dup.allgather(rank.rank());
    EXPECT_EQ(all->size(), 3u);
  });
}

TEST(Comm, VirtualPayloadMessages) {
  Machine machine(small_cluster());
  machine.run(2, [](Rank& rank) {
    if (rank.rank() == 0) {
      rank.world().send(1, 4, util::ConstPayload::virtual_bytes(1 << 20));
    } else {
      Status st;
      rank.world().recv(0, 4, util::Payload::virtual_bytes(1 << 20), &st);
      EXPECT_EQ(st.bytes, 1u << 20);
      EXPECT_GT(st.arrival, 0.0);
    }
  });
}

TEST(Comm, HierCollectivesMatchFlat) {
  // The node-leader variants must return bit-identical results to the
  // flat collectives on awkward communicator sizes: single rank, one
  // full node, a partially occupied last node, and the full machine.
  for (const int n : {1, 4, 7, 12}) {
    Machine machine(small_cluster());
    machine.run(n, [n](Rank& rank) {
      const int me = rank.rank();
      Comm& c = rank.world();
      EXPECT_EQ(*c.allgather_hier(me * 3 + 1), *c.allgather(me * 3 + 1));
      EXPECT_EQ(c.allreduce_max_hier(static_cast<double>((me * 7) % 5)),
                c.allreduce_max(static_cast<double>((me * 7) % 5)));
      EXPECT_EQ(c.allreduce_max_hier(static_cast<std::int64_t>(me % 3)),
                c.allreduce_max(static_cast<std::int64_t>(me % 3)));

      // Variable-size blobs, some ranks contributing nothing.
      std::vector<std::byte> mine(static_cast<std::size_t>((me * 5) % 7));
      for (std::size_t i = 0; i < mine.size(); ++i) {
        mine[i] = static_cast<std::byte>(me + static_cast<int>(i));
      }
      EXPECT_EQ(c.allgather_blobs_hier(mine), c.allgather_blobs(mine));

      // All-to-all with a sparse, asymmetric matrix (empties elided on
      // the hier relay must still deliver as empty).
      std::vector<std::vector<std::byte>> to_each(
          static_cast<std::size_t>(n));
      for (int dst = 0; dst < n; ++dst) {
        if ((me + dst) % 3 == 0) continue;
        to_each[static_cast<std::size_t>(dst)].resize(
            static_cast<std::size_t>((me + 2 * dst) % 5 + 1),
            static_cast<std::byte>(me * 16 + dst));
      }
      EXPECT_EQ(c.alltoallv_blobs_hier(to_each),
                c.alltoallv_blobs(to_each));
    });
  }
}

TEST(Machine, FinishTimesDeterministic) {
  const auto once = [] {
    Machine machine(small_cluster());
    return machine.run(12, [](Rank& rank) {
      rank.world().barrier();
      const auto v = rank.world().allgather(rank.rank());
      (void)v;
      rank.world().barrier();
    });
  };
  EXPECT_EQ(once(), once());
}

}  // namespace
}  // namespace mcio::mpi
