// Message passing: point-to-point semantics, matching, collectives on
// awkward communicator sizes, and transport timing.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "mpi/comm.h"
#include "mpi/machine.h"
#include "verify/observer.h"

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
      const sim::SimTime posted_at = rank.actor().now();
      Request r_late = rank.world().irecv(
          1, 2,
          util::Payload::real(reinterpret_cast<std::byte*>(&late),
                              sizeof(late)));
      Status st;
      rank.world().wait(r_late, &st);
      EXPECT_EQ(late, 22);
      EXPECT_LE(st.arrival, posted_at);  // matched from the unexpected queue
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

TEST_P(CollectiveSizes, GatherAndAllgather) {
  const int p = GetParam();
  Machine machine(small_cluster(4, 4));
  machine.run(p, [p](Rank& rank) {
    const auto all = rank.world().allgather(rank.rank() + 100);
    ASSERT_EQ(all->size(), static_cast<std::size_t>(p));
    for (int i = 0; i < p; ++i) {
      EXPECT_EQ((*all)[static_cast<std::size_t>(i)], i + 100);
    }
  });
}

TEST_P(CollectiveSizes, Allreduce) {
  const int p = GetParam();
  Machine machine(small_cluster(4, 4));
  machine.run(p, [p](Rank& rank) {
    EXPECT_DOUBLE_EQ(rank.world().allreduce_sum(0.5), 0.5 * p);
    EXPECT_DOUBLE_EQ(
        rank.world().allreduce_max(static_cast<double>(rank.rank())),
        static_cast<double>(p - 1));
  });
}

// Every rank (the root included) sends to rank 0; the root posts one
// exact-source receive per sender in descending source order and waits on
// them in ascending order. Each receive gets exactly its source's message.
TEST_P(CollectiveSizes, ExactSourceReceivesInAnyPostingOrder) {
  const int p = GetParam();
  Machine machine(small_cluster(4, 4));
  machine.run(p, [p](Rank& rank) {
    Comm& world = rank.world();
    const std::int32_t mine = 1000 + rank.rank();
    world.send(0, 3,
               util::ConstPayload::real(
                   reinterpret_cast<const std::byte*>(&mine), sizeof(mine)));
    if (rank.rank() != 0) return;
    std::vector<std::int32_t> got(static_cast<std::size_t>(p), -1);
    std::vector<Request> reqs(static_cast<std::size_t>(p));
    for (int src = p - 1; src >= 0; --src) {
      const auto i = static_cast<std::size_t>(src);
      reqs[i] = world.irecv(
          src, 3,
          util::Payload::real(reinterpret_cast<std::byte*>(&got[i]),
                              sizeof(got[i])));
    }
    for (int src = 0; src < p; ++src) {
      Status st;
      world.wait(reqs[static_cast<std::size_t>(src)], &st);
      EXPECT_EQ(st.source, src);
      EXPECT_EQ(st.tag, 3);
      EXPECT_EQ(got[static_cast<std::size_t>(src)], 1000 + src);
    }
  });
}

// A ring of variable-size blobs (some empty) through both receive paths:
// recv_blob, then recv_blob_deferred + charge_blob on a second tag.
TEST_P(CollectiveSizes, BlobRingBothReceivePaths) {
  const int p = GetParam();
  Machine machine(small_cluster(4, 4));
  machine.run(p, [p](Rank& rank) {
    Comm& world = rank.world();
    const int me = rank.rank();
    const auto blob_of = [](int r) {
      std::vector<std::byte> b(static_cast<std::size_t>((r * 5) % 7));
      for (std::size_t i = 0; i < b.size(); ++i) {
        b[i] = static_cast<std::byte>(r * 16 + static_cast<int>(i));
      }
      return b;
    };
    const int next = (me + 1) % p;
    const int prev = (me + p - 1) % p;
    world.send_blob(next, 8, blob_of(me));
    world.send_blob(next, 9, blob_of(me));

    Status st;
    EXPECT_EQ(world.recv_blob(prev, 8, &st), blob_of(prev));
    EXPECT_EQ(st.source, prev);
    EXPECT_EQ(st.tag, 8);

    const FramedBlob b = world.recv_blob_deferred(prev, 9);
    EXPECT_EQ(b.source, prev);
    EXPECT_EQ(b.tag, 9);
    EXPECT_EQ(b.bytes, blob_of(prev));
    EXPECT_LE(b.header_arrival, b.arrival);
    world.charge_blob(b, &st);
    EXPECT_EQ(st.source, prev);
    // An empty blob is charged as its 8-byte size header alone.
    EXPECT_EQ(st.bytes, b.bytes.empty() ? sizeof(std::uint64_t)
                                        : b.bytes.size());
    EXPECT_GE(rank.actor().now(), b.arrival);
  });
}

// Node-leader collectives return the flat results (and the expected
// values) on 4-rank nodes, including partially occupied last nodes.
TEST_P(CollectiveSizes, HierCollectivesMatchFlat) {
  const int p = GetParam();
  Machine machine(small_cluster(4, 4));
  machine.run(p, [p](Rank& rank) {
    Comm& c = rank.world();
    const int me = rank.rank();
    const auto hier = c.allgather(me * 3 + 1, /*hier=*/true);
    ASSERT_EQ(hier->size(), static_cast<std::size_t>(p));
    for (int i = 0; i < p; ++i) {
      EXPECT_EQ((*hier)[static_cast<std::size_t>(i)], i * 3 + 1);
    }
    EXPECT_EQ(*hier, *c.allgather(me * 3 + 1));
    const double v = static_cast<double>((me * 7) % 5);
    EXPECT_EQ(c.allreduce_max(v, /*hier=*/true), c.allreduce_max(v));
    EXPECT_DOUBLE_EQ(c.allreduce_max(static_cast<double>(me), /*hier=*/true),
                     static_cast<double>(p - 1));
  });
}

/// Counts delivered messages; allocates nothing in its hook.
class DeliveryCounter : public verify::Observer {
 public:
  void on_message_delivered(std::uint64_t, int, int, int, std::uint64_t,
                            bool) override {
    ++delivered;
  }

  std::uint64_t delivered = 0;
};

/// One allgather (flat or node-leader) on a fresh machine: the delivered
/// message count, then every rank's finish time as a hexfloat.
std::string allgather_census(int p, bool hier) {
  Machine machine(small_cluster(4, 4));
  DeliveryCounter counter;
  machine.set_observer(&counter);
  std::vector<double> finish(static_cast<std::size_t>(p));
  machine.run(p, [&](Rank& rank) {
    Comm& c = rank.world();
    c.allgather(rank.rank() * 3 + 1, hier);
    finish[static_cast<std::size_t>(rank.rank())] = rank.actor().now();
  });
  std::ostringstream os;
  os << counter.delivered << ":" << std::hexfloat;
  for (const double t : finish) os << ' ' << t;
  return os.str();
}

// The trees' traffic and timing, pinned: who sends to whom, in what
// order and over which channel shows up in the message count and in
// every rank's finish time.
TEST_P(CollectiveSizes, AllgatherCensus) {
  const std::map<int, std::pair<std::string, std::string>> expected = {
      {1,
       {"0: 0x0p+0",
        "0: 0x0p+0"}},
      {2,
       {"2: 0x1.4f9e965e1bd93p-18 0x1.92db7120c5c57p-18",
        "2: 0x1.780d1d6dfbbb5p-19 0x1.5d4658df2732ep-18"}},
      {3,
       {"4: 0x1.2e070834bd59p-17 0x1.4fac54ce08c52p-17"
        " 0x1.0c90764b310eep-17",
        "4: 0x1.63d31a360f9b1p-18 0x1.f7b8191cc2bf8p-18"
        " 0x1.101ea6cc41937p-17"}},
      {5,
       {"8: 0x1.d5e6d183b460dp-17 0x1.f799dc8cecb8dp-17"
        " 0x1.f799dc8cecb8dp-17 0x1.0ca673cb12886p-16 0x1.dae994fcbfb4ap-17",
        "8: 0x1.8c078fe04018ep-17 0x1.cf5540b8d2a6p-17"
        " 0x1.e3a909029b008p-17 0x1.f7fcd14c635bp-17 0x1.01900d3576aacp-16"}},
      {7,
       {"12: 0x1.1ed7923dd1bd1p-16 0x1.2fb7f6fa645fp-16"
        " 0x1.2fb7f6fa645fp-16 0x1.40985bb6f700fp-16 0x1.6559e31bf1231p-16"
        " 0x1.763a47d883c5p-16 0x1.54ac589717e9ep-16",
        "12: 0x1.c847a6089d1abp-17 0x1.05d342768be75p-16"
        " 0x1.1005bda16427fp-16 0x1.1a3838cc3c68ap-16 0x1.274b258f165d4p-16"
        " 0x1.4c559354ab4d5p-16 0x1.56880e7f838ep-16"}},
      {12,
       {"22: 0x1.7339ff34ae43ep-16 0x1.842b91fd290cap-16"
        " 0x1.842b91fd290cap-16 0x1.951d24c5a3d56p-16 0x1.e063eadd250ccp-16"
        " 0x1.f1557da59fd58p-16 0x1.f1557da59fd58p-16 0x1.012388370d4f2p-15"
        " 0x1.9a6b0a5e46dd7p-16 0x1.ab5c9d26c1a63p-16 0x1.ab5c9d26c1a63p-16"
        " 0x1.bc4e2fef3c6efp-16",
        "22: 0x1.4e4a5e62f41fcp-16 0x1.700f476413aa8p-16"
        " 0x1.7a573c1dce1bcp-16 0x1.849f30d7888dp-16 0x1.bb744a0b6ae89p-16"
        " 0x1.dd39330c8a735p-16 0x1.e78127c644e49p-16 0x1.f1c91c7fff55dp-16"
        " 0x1.757b698c8cb94p-16 0x1.9740528dac44p-16 0x1.a188474766b54p-16"
        " 0x1.abd03c0121268p-16"}},
      {16,
       {"30: 0x1.ba2ed8622eacep-16 0x1.cb2e299a96618p-16"
        " 0x1.cb2e299a96618p-16 0x1.dc2d7ad2fe162p-16 0x1.1503faf375c38p-15"
        " 0x1.1d83a38fa99ddp-15 0x1.1d83a38fa99dcp-15 0x1.26034c2bdd781p-15"
        " 0x1.025bfa055b969p-15 0x1.0adba2a18f70dp-15 0x1.0adba2a18f70dp-15"
        " 0x1.135b4b3dc34b2p-15 0x1.27a087d99fd69p-15 0x1.30203075d3b0ep-15"
        " 0x1.30203075d3b0ep-15 0x1.389fd912078b3p-15",
        "30: 0x1.953f37907488bp-16 0x1.b7154e9d7c3a4p-16"
        " 0x1.c16e71631ed25p-16 0x1.cbc79428c16a6p-16 0x1.028c2a8a98b19p-15"
        " 0x1.137736111c8a3p-15 0x1.18a3c773edd64p-15 0x1.1dd058d6bf225p-15"
        " 0x1.dfc85338fd08fp-16 0x1.00cf3523025d4p-15 0x1.05fbc685d3a94p-15"
        " 0x1.0b2857e8a4f54p-15 0x1.1528b770c2c4cp-15 0x1.2613c2f7469d5p-15"
        " 0x1.2b40545a17e96p-15 0x1.306ce5bce9357p-15"}},
  };
  const int p = GetParam();
  EXPECT_EQ(allgather_census(p, false), expected.at(p).first);
  EXPECT_EQ(allgather_census(p, true), expected.at(p).second);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollectiveSizes,
                         ::testing::Values(1, 2, 3, 5, 7, 12, 16));

/// Counts blocking waits; allocates nothing in its hook.
class WaitCounter : public verify::Observer {
 public:
  void on_wait_begin(int, std::uint64_t, int, int) override { ++waits; }

  std::uint64_t waits = 0;
};

/// Runs `body` on the four ranks of a two-node, two-ranks-per-node
/// machine: the wait count, every arrival the body notes, then every
/// rank's finish time, as hexfloats.
std::string receive_timing(
    const std::function<void(Rank&, std::vector<double>&)>& body) {
  Machine machine(small_cluster(2, 2));
  WaitCounter counter;
  machine.set_observer(&counter);
  std::vector<double> arrivals;
  const std::vector<sim::SimTime> finish =
      machine.run(4, [&](Rank& rank) { body(rank, arrivals); });
  std::ostringstream os;
  os << counter.waits << std::hexfloat << " |";
  for (const double t : arrivals) os << ' ' << t;
  os << " |";
  for (const double t : finish) os << ' ' << t;
  return os.str();
}

// When a receive completes, by case: pins the clock a rank resumes at,
// the arrival it reports and whether it blocked, for every way a message
// can meet its receive.
TEST(Transport, ReceiveTimingCensus) {
  constexpr std::uint64_t kBytes = 4096;
  const auto msg = util::ConstPayload::virtual_bytes(kBytes);
  const auto buf = util::Payload::virtual_bytes(kBytes);
  std::vector<std::string> census;

  // A receive posted before the send.
  census.push_back(receive_timing([&](Rank& rank, std::vector<double>& out) {
    Comm& c = rank.world();
    if (rank.rank() == 0) {
      rank.actor().advance(2e-6);
      c.send(2, 1, msg);
    } else if (rank.rank() == 2) {
      Status st;
      c.recv(0, 1, buf, &st);
      out.push_back(st.arrival);
    }
  }));

  // A receive posted after its message arrived.
  census.push_back(receive_timing([&](Rank& rank, std::vector<double>& out) {
    Comm& c = rank.world();
    if (rank.rank() == 0) {
      c.send(2, 1, msg);
    } else if (rank.rank() == 2) {
      rank.actor().advance(1e-3);
      Status st;
      c.recv(0, 1, buf, &st);
      out.push_back(st.arrival);
    }
  }));

  // Receives posted at slice time 0, one sent before and one after the
  // post; the rank computes past both arrivals inside the same slice,
  // then waits.
  census.push_back(receive_timing([&](Rank& rank, std::vector<double>& out) {
    Comm& c = rank.world();
    if (rank.rank() == 0) {
      c.send(2, 1, msg);
    } else if (rank.rank() == 1) {
      rank.actor().advance(1e-6);
      c.send(2, 2, msg);
    } else if (rank.rank() == 2) {
      Request early = c.irecv(0, 1, buf);
      Request late = c.irecv(1, 2, buf);
      rank.actor().advance(1e-3);
      Status st;
      c.wait(early, &st);
      out.push_back(st.arrival);
      c.wait(late, &st);
      out.push_back(st.arrival);
    }
  }));

  // Two receives waited in the reverse of their arrival order.
  census.push_back(receive_timing([&](Rank& rank, std::vector<double>& out) {
    Comm& c = rank.world();
    if (rank.rank() == 0) {
      c.send(2, 1, msg);
    } else if (rank.rank() == 3) {
      rank.actor().advance(5e-4);
      c.send(2, 1, msg);
    } else if (rank.rank() == 2) {
      Request first = c.irecv(0, 1, buf);
      Request second = c.irecv(3, 1, buf);
      Status st;
      c.wait(second, &st);
      out.push_back(st.arrival);
      out.push_back(rank.actor().now());
      c.wait(first, &st);
      out.push_back(st.arrival);
    }
  }));

  // A deferred blob drain in source order, one blob over shm arriving
  // after one over the transport, then the charges in the same order.
  census.push_back(receive_timing([&](Rank& rank, std::vector<double>& out) {
    Comm& c = rank.world();
    const std::vector<std::byte> blob(65536);
    if (rank.rank() == 1) {
      rank.actor().advance(1.2e-4);
      c.send_blob(0, 7, blob, Channel::kShm);
    } else if (rank.rank() == 2) {
      c.send_blob(0, 7, blob);
    } else if (rank.rank() == 0) {
      std::vector<FramedBlob> blobs;
      for (const int src : {1, 2}) {
        blobs.push_back(c.recv_blob_deferred(src, 7));
        out.push_back(rank.actor().now());
      }
      for (const FramedBlob& b : blobs) {
        Status st;
        c.charge_blob(b, &st);
        out.push_back(b.header_arrival);
        out.push_back(st.arrival);
      }
    }
  }));

  const std::vector<std::string> expected = {
      "1 | 0x1.3d783c074db2ap-17 | 0x1.92a737110e454p-19 0x0p+0"
      " 0x1.5f062b48b98dcp-17 0x0p+0",
      "0 | 0x1.f4b8bb08ebf8dp-18 | 0x1.0c6f7a0b5ed8dp-20 0x0p+0"
      " 0x1.0667f90d9d777p-10 0x0p+0",
      "1 | 0x1.f4b8bb08ebf8dp-18 0x1.99187b881cd5cp-17 |"
      " 0x1.0c6f7a0b5ed8dp-20 0x1.0c6f7a0b5ed8dp-19 0x1.06ab14ec204f2p-10"
      " 0x0p+0",
      "1 | 0x1.063adaaefc192p-11 0x1.06c1126c01c89p-11"
      " 0x1.f4b8bb08ebf8dp-18 | 0x1.0c6f7a0b5ed8dp-20 0x0p+0"
      " 0x1.07474a290778p-11 0x1.06ab14ec204f3p-11",
      "1 | 0x1.03ca10ba1f66ap-13 0x1.03ca10ba1f66ap-13"
      " 0x1.f893922812162p-14 0x1.03ca10ba1f66ap-13 0x1.0dddfb0962155p-19"
      " 0x1.7f4dafa7ea86ep-14 | 0x1.0c2d8c8a7a5d6p-13 0x1.f827c46a27bc1p-14"
      " 0x1.0c6f7a0b5ed8dp-19 0x0p+0",
  };
  EXPECT_EQ(census, expected);
}

/// Rank 0 of a two-node, two-ranks-per-node machine sends one message to
/// `dst` with `send`; `dst` receives it as a plain message or, when
/// `framed`, as a blob. The sender's clock after the send, the header
/// arrival (framed only), Status.arrival and the receiver's clock after
/// the receive, as hexfloats.
std::string channel_timing(int dst, bool framed,
                           const std::function<void(Comm&)>& send) {
  Machine machine(small_cluster(2, 2));
  std::vector<double> t;
  machine.run(4, [&](Rank& rank) {
    Comm& c = rank.world();
    if (rank.rank() == 0) {
      rank.actor().advance(3e-6);
      send(c);
      t.insert(t.begin(), rank.actor().now());
    } else if (rank.rank() == dst) {
      Status st;
      if (framed) {
        const FramedBlob b = c.recv_blob_deferred(0, 5);
        c.charge_blob(b, &st);
        t.push_back(b.header_arrival);
      } else {
        c.recv(0, 5, util::Payload::virtual_bytes(1 << 16), &st);
      }
      t.push_back(st.arrival);
      t.push_back(rank.actor().now());
    }
  });
  std::ostringstream os;
  os << std::hexfloat;
  for (const double x : t) os << x << ' ';
  return os.str();
}

// What each channel and framing charges, pinned: a plain message and a
// framed blob (non-empty and empty) over the transport and over shm,
// between ranks on one node and, for the transport, across nodes.
TEST(Transport, ChannelFramingTimingCensus) {
  const auto msg = util::ConstPayload::virtual_bytes(1 << 16);
  const std::vector<std::byte> blob(1 << 16);
  const std::vector<std::byte> none;
  std::vector<std::string> census;
  for (const int dst : {1, 2}) {
    census.push_back(channel_timing(dst, false, [&](Comm& c) {
      c.send(dst, 5, msg);
    }));
    census.push_back(channel_timing(dst, true, [&](Comm& c) {
      c.send_blob(dst, 5, blob);
    }));
    census.push_back(channel_timing(dst, true, [&](Comm& c) {
      c.send_blob(dst, 5, none);
    }));
  }
  census.push_back(channel_timing(1, false, [&](Comm& c) {
    c.send(1, 5, msg, Channel::kShm);
  }));
  census.push_back(channel_timing(1, true, [&](Comm& c) {
    c.send_blob(1, 5, blob, Channel::kShm);
  }));
  census.push_back(channel_timing(1, true, [&](Comm& c) {
    c.send_blob(1, 5, none, Channel::kShm);
  }));
  census.push_back(channel_timing(1, true, [&](Comm& c) {
    c.send_blob_shared(1, 5,
                       std::make_shared<util::SharedBuffer>(
                           util::SharedBuffer{blob, {}}),
                       Channel::kShm);
  }));
  const std::vector<std::string> expected = {
      // transport, same node: plain
      "0x1.0c6f7a0b5ed8dp-18 0x1.793f9a9452474p-18 0x1.bc5b791729fd7p-18 ",
      // framed
      "0x1.4f8b588e368fp-18 0x1.92b235d0ff01fp-19 "
      "0x1.bc5b791729fd8p-18 0x1.21499b0e6cb4fp-17 ",
      // framed, empty
      "0x1.0c6f7a0b5ed8dp-18 0x1.92b235d0ff01fp-19 "
      "0x1.92b235d0ff01fp-19 0x1.0c74f96b57373p-18 ",
      // transport, across nodes: plain
      "0x1.0c6f7a0b5ed8dp-18 0x1.8379b38c1ff55p-14 0x1.87ab71744d70bp-14 ",
      // framed
      "0x1.4f8b588e368fp-18 0x1.5042990d382d4p-18 "
      "0x1.8be2e96072f9p-14 0x1.94466530cdefcp-14 ",
      // framed, empty
      "0x1.0c6f7a0b5ed8dp-18 0x1.5042990d382d4p-18 "
      "0x1.5042990d382d4p-18 0x1.935e77900fe37p-18 ",
      // shm: plain
      "0x1.a013305e6c9cep-19 0x1.b95c904b5293fp-18 0x1.fc786ece2a4a2p-18 ",
      // framed
      "0x1.ad7f29abcaf48p-19 0x1.baf8e16916381p-19 "
      "0x1.cd856577568d6p-18 0x1.29de913e82fcfp-17 ",
      // framed, empty
      "0x1.a013305e6c9cep-19 0x1.baf8e16916381p-19 "
      "0x1.baf8e16916381p-19 0x1.20984f3762d24p-18 ",
      // framed, shared buffer
      "0x1.ad7f29abcaf48p-19 0x1.baf8e16916381p-19 "
      "0x1.cd856577568d6p-18 0x1.29de913e82fcfp-17 ",
  };
  EXPECT_EQ(census, expected);
}

TEST(Transport, ArrivalAtSliceTimeDoesNotYield) {
  // A message that arrived by the time the receiver's slice began is in
  // hand: the wait neither blocks nor yields. One that arrives a tick
  // after the slice began makes the receiver yield to its arrival.
  const auto recv_at = [](double t, Status* st) {
    Machine machine(small_cluster(2, 2));
    WaitCounter counter;
    machine.set_observer(&counter);
    machine.run(4, [&](Rank& rank) {
      if (rank.rank() == 0) {
        rank.world().send(2, 1, util::ConstPayload::virtual_bytes(4096));
      } else if (rank.rank() == 2) {
        rank.actor().advance_to(t);
        rank.world().recv(0, 1, util::Payload::virtual_bytes(4096), st);
      }
    });
    return counter.waits;
  };
  Status first;
  EXPECT_EQ(recv_at(0.0, &first), 1u);
  const double arrival = first.arrival;
  Status st;
  EXPECT_EQ(recv_at(arrival, &st), 0u);
  EXPECT_EQ(st.arrival, arrival);
  EXPECT_EQ(recv_at(std::nextafter(arrival, 0.0), &st), 1u);
  EXPECT_EQ(st.arrival, arrival);
}

TEST(Transport, SameKeyOvertakingRejected) {
  // Messages match in send order, so one key's messages must arrive in
  // send order too. A large message over shm, then a small one over the
  // membus on the same key, arrive inverted: queuing the second behind
  // the first is rejected.
  Machine machine(small_cluster(2, 2));
  try {
    machine.run(2, [](Rank& rank) {
      Comm& c = rank.world();
      const auto buf = util::Payload::virtual_bytes(1 << 30);
      if (rank.rank() == 0) {
        c.send(1, 3, util::ConstPayload::virtual_bytes(1 << 30), Channel::kShm);
        c.send(1, 3, util::ConstPayload::virtual_bytes(8));
      } else {
        rank.actor().advance(1.0);
        c.recv(0, 3, buf);
        c.recv(0, 3, buf);
      }
    });
    FAIL() << "an overtaking message was queued";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("overtakes"), std::string::npos)
        << e.what();
  }
}

TEST(Transport, SameKeyOvertakingRejectedWithReceivesPostedFirst) {
  // The same inversion with both receives posted at t = 0, before either
  // send, so each message completes a posted receive. With `interleave`,
  // a message on another key goes between the two, so only the arrival
  // the second receive carries from the first match can reject it.
  for (const bool interleave : {false, true}) {
    Machine machine(small_cluster(2, 2));
    try {
      machine.run(2, [interleave](Rank& rank) {
        Comm& c = rank.world();
        if (rank.rank() == 0) {
          rank.actor().advance(1e-6);  // rank 1 posts first
          c.send(1, 3, util::ConstPayload::virtual_bytes(1 << 30),
                 Channel::kShm);
          if (interleave) c.send(1, 4, util::ConstPayload::virtual_bytes(8));
          c.send(1, 3, util::ConstPayload::virtual_bytes(8));
        } else {
          // No heap object lives on this stack: the run aborts while this
          // rank is parked, so its fiber never unwinds.
          const auto buf = util::Payload::virtual_bytes(1 << 30);
          std::array<Request, 3> reqs;
          reqs[0] = c.irecv(0, 3, buf);
          reqs[1] = c.irecv(0, 3, buf);
          if (interleave) reqs[2] = c.irecv(0, 4, buf);
          c.waitall(reqs);
        }
      });
      FAIL() << "an overtaking message was matched (interleave "
             << interleave << ")";
    } catch (const util::Error& e) {
      EXPECT_NE(std::string(e.what()).find("overtakes"), std::string::npos)
          << e.what();
    }
  }
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
      EXPECT_EQ(*c.allgather(me * 3 + 1, /*hier=*/true),
                *c.allgather(me * 3 + 1));
      EXPECT_EQ(c.allreduce_max(static_cast<double>((me * 7) % 5), true),
                c.allreduce_max(static_cast<double>((me * 7) % 5)));
    });
  }
}

TEST(Comm, AllreduceReducesOncePerCollective) {
  // The root reduces the gathered values once and every rank reads the
  // shared scalar; the sum still runs left to right in rank order, so it
  // is the same double a serial loop computes.
  constexpr int kRanks = 13;
  double serial = 0.0;
  for (int r = 0; r < kRanks; ++r) serial += 0.1 * (r + 1);
  Machine machine(small_cluster(4, 4));
  machine.run(kRanks, [serial](Rank& rank) {
    Comm& c = rank.world();
    const double mine = 0.1 * (rank.rank() + 1);
    EXPECT_EQ(c.allreduce_sum(mine), serial);
    EXPECT_EQ(c.allreduce_max(mine), 0.1 * kRanks);
    EXPECT_EQ(c.allreduce_max(-mine, /*hier=*/true), -0.1);
    (void)c.allgather(rank.rank());  // a plain allgather reduces nothing
  });
  EXPECT_EQ(machine.reduce_passes(), 3u);
}

TEST(Comm, OnlyHierCollectivesReserveMemberTags) {
  // A flat allgather/allreduce_max takes a gather and a broadcast tag;
  // the node-leader tree adds its two member legs. Every later
  // collective's tags, and so every figure, depend on these counts.
  Machine machine(small_cluster());
  machine.run(7, [](Rank& rank) {
    Comm& c = rank.world();
    std::vector<int> mark{c.reserve_tags(1)};
    (void)c.allgather(rank.rank());
    mark.push_back(c.reserve_tags(1));
    (void)c.allgather(rank.rank(), /*hier=*/true);
    mark.push_back(c.reserve_tags(1));
    (void)c.allreduce_max(1.0);
    mark.push_back(c.reserve_tags(1));
    (void)c.allreduce_max(1.0, /*hier=*/true);
    mark.push_back(c.reserve_tags(1));
    c.barrier();
    mark.push_back(c.reserve_tags(1));
    // Each gap is the collective's tags plus the one reserved marker.
    const std::vector<int> gaps_expected = {3, 5, 3, 5, 2};
    std::vector<int> gaps;
    for (std::size_t i = 1; i < mark.size(); ++i) {
      gaps.push_back(mark[i] - mark[i - 1]);
    }
    EXPECT_EQ(gaps, gaps_expected);
  });
}

TEST(Comm, SharePlanBuildsOncePerCollective) {
  // Every rank of one collective gets the object the first arriving rank
  // built, stamped with that builder's key; the next collective builds
  // afresh under its own sequence.
  constexpr int kRanks = 6;
  Machine machine(small_cluster());
  std::vector<SharedPlan> first(kRanks), second(kRanks);
  machine.run(kRanks, [&](Rank& rank) {
    Comm& c = rank.world();
    const int me = rank.rank();
    const auto build = [me] { return std::make_shared<const int>(me); };
    (void)c.allgather(me);
    first[static_cast<std::size_t>(me)] =
        c.share_plan(static_cast<std::uint64_t>(me), build);
    c.barrier();
    second[static_cast<std::size_t>(me)] =
        c.share_plan(static_cast<std::uint64_t>(me), build);
  });
  EXPECT_EQ(machine.plan_builds(), 2u);
  for (const auto* plans : {&first, &second}) {
    for (const SharedPlan& p : *plans) {
      ASSERT_NE(p.plan, nullptr);
      EXPECT_EQ(p.plan, plans->front().plan);
      EXPECT_EQ(p.seq, plans->front().seq);
      EXPECT_EQ(p.key, static_cast<std::uint64_t>(
                           *std::static_pointer_cast<const int>(p.plan)));
    }
  }
  EXPECT_NE(first.front().plan, second.front().plan);
  EXPECT_LT(first.front().seq, second.front().seq);
}

TEST(Comm, ShmChannelNeedsOneNode) {
  // The shm segment is per node: a kShm send to a rank on another node is
  // rejected before it charges anything.
  Machine machine(small_cluster(2, 2));
  EXPECT_THROW(machine.run(3,
                           [](Rank& rank) {
                             if (rank.rank() == 0) {
                               rank.world().send(
                                   2, 1,
                                   util::ConstPayload::virtual_bytes(8),
                                   Channel::kShm);
                             }
                           }),
               util::Error);
}

TEST(Comm, SharedBlobCrossesEitherChannelUncopied) {
  // send_blob_shared hands the receiver the sender's buffer itself, over
  // the transport and over shm alike.
  Machine machine(small_cluster(2, 2));
  const util::SharedBytes sent = std::make_shared<util::SharedBuffer>(
      util::SharedBuffer{std::vector<std::byte>(64, std::byte{7}), {}});
  std::vector<util::SharedBytes> got;
  machine.run(2, [&](Rank& rank) {
    Comm& c = rank.world();
    if (rank.rank() == 0) {
      c.send_blob_shared(1, 1, sent);
      c.send_blob_shared(1, 2, sent, Channel::kShm);
    } else {
      got.push_back(c.recv_blob_shared(0, 1));
      got.push_back(c.recv_blob_shared(0, 2));
    }
  });
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], sent);
  EXPECT_EQ(got[1], sent);
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
