// Parallel file system simulator and node memory manager.
#include <gtest/gtest.h>

#include "node/memory.h"
#include "pfs/pfs.h"
#include "sim/engine.h"

namespace mcio {
namespace {

using util::ConstPayload;
using util::Payload;

TEST(Store, SparseReadWriteAcrossPages) {
  pfs::Store store;
  std::vector<std::byte> data(20000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i * 7);
  }
  store.write(5000, ConstPayload::of(data));
  EXPECT_EQ(store.size(), 25000u);
  std::vector<std::byte> back(20000);
  store.read(5000, Payload::of(back));
  EXPECT_EQ(back, data);
  // Holes read as zero.
  std::vector<std::byte> hole(100, std::byte{0xff});
  store.read(100000, Payload::of(hole));
  for (const auto b : hole) EXPECT_EQ(b, std::byte{0});
  // Virtual writes only extend the size.
  store.write(50000, ConstPayload::virtual_bytes(1000));
  EXPECT_EQ(store.size(), 51000u);
  const auto pages = store.resident_pages();
  store.write(200000, ConstPayload::virtual_bytes(4096));
  EXPECT_EQ(store.resident_pages(), pages);  // no real data stored
  store.truncate();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.resident_pages(), 0u);
}

class PfsFixture : public ::testing::Test {
 protected:
  PfsFixture() : cluster_(config()), fs_(cluster_, pfs_config()) {}

  static sim::ClusterConfig config() {
    sim::ClusterConfig c;
    c.num_nodes = 2;
    c.ranks_per_node = 2;
    return c;
  }
  static pfs::PfsConfig pfs_config() {
    pfs::PfsConfig p;
    p.num_osts = 4;
    p.stripe_unit = 1024;
    p.max_rpc_bytes = 4096;
    return p;
  }

  /// Runs `body` in a single-actor engine (file ops need an Actor).
  void in_actor(const std::function<void(sim::Actor&)>& body) {
    sim::Engine engine;
    engine.spawn([&](sim::Actor& a) { body(a); });
    engine.run();
  }

  sim::Cluster cluster_;
  pfs::Pfs fs_;
};

TEST_F(PfsFixture, CreateOpenRemove) {
  const auto fh = fs_.create("/a");
  EXPECT_TRUE(fs_.exists("/a"));
  EXPECT_EQ(fs_.open("/a"), fh);
  EXPECT_EQ(fs_.stripe_count(fh), 4);
  EXPECT_THROW(fs_.open("/nope"), util::Error);
  fs_.remove("/a");
  EXPECT_FALSE(fs_.exists("/a"));
  const auto f2 = fs_.create("/b", 2);
  EXPECT_EQ(fs_.stripe_count(f2), 2);
}

TEST_F(PfsFixture, WriteReadRoundTripAndSize) {
  const auto fh = fs_.create("/f");
  in_actor([&](sim::Actor& a) {
    std::vector<std::byte> data(5000);
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<std::byte>(i);
    }
    fs_.write(a, fh, 300, ConstPayload::of(data));
    EXPECT_EQ(fs_.file_size(fh), 5300u);
    std::vector<std::byte> back(5000);
    fs_.read(a, fh, 300, Payload::of(back));
    EXPECT_EQ(back, data);
    EXPECT_GT(a.now(), 0.0);
  });
}

TEST_F(PfsFixture, RpcSplittingAndCoalescing) {
  const auto fh = fs_.create("/g");
  in_actor([&](sim::Actor& a) {
    fs_.reset_accounting();
    // 4 KiB at offset 0 over 1 KiB stripes on 4 OSTs: one stripe per OST,
    // stripes of one request on distinct OSTs can't coalesce -> 4 RPCs.
    fs_.write(a, fh, 0, ConstPayload::virtual_bytes(4096));
    EXPECT_EQ(fs_.total_rpcs(), 4u);
    // 8 KiB: stripes 0..7, two per OST, object-contiguous -> still 4 RPCs
    // (2 KiB each) thanks to coalescing.
    fs_.reset_accounting();
    fs_.write(a, fh, 8192, ConstPayload::virtual_bytes(8192));
    EXPECT_EQ(fs_.total_rpcs(), 4u);
  });
}

TEST_F(PfsFixture, SeeksDetected) {
  const auto fh = fs_.create("/h");
  in_actor([&](sim::Actor& a) {
    fs_.reset_accounting();
    fs_.write(a, fh, 0, ConstPayload::virtual_bytes(1024));
    EXPECT_EQ(fs_.total_seeks(), 1u);  // first access seeks
    // Sequential continuation on the same OST: no new seek.
    fs_.write(a, fh, 4096, ConstPayload::virtual_bytes(1024));
    EXPECT_EQ(fs_.total_seeks(), 1u);
    // Jump backwards: seek.
    fs_.write(a, fh, 0, ConstPayload::virtual_bytes(1024));
    EXPECT_EQ(fs_.total_seeks(), 2u);
    // flush_locality forgets positions: next access seeks again.
    fs_.flush_locality();
    fs_.write(a, fh, 4096, ConstPayload::virtual_bytes(1024));
    EXPECT_EQ(fs_.total_seeks(), 3u);
  });
}

TEST_F(PfsFixture, SeeksTrackedPerHandleAcrossRecreate) {
  // remove + create of one path yields a new handle; the old handle
  // still reaches its own file state, so its writes must not move the
  // new handle's OST head positions.
  const auto old_fh = fs_.create("/r");
  fs_.remove("/r");
  const auto new_fh = fs_.create("/r");
  ASSERT_NE(old_fh, new_fh);
  in_actor([&](sim::Actor& a) {
    fs_.reset_accounting();
    // The new handle starts one OST later: its stripe 0 and the old
    // handle's stripe 5 share OST 1, at different object offsets.
    fs_.write(a, new_fh, 0, ConstPayload::virtual_bytes(1024));
    fs_.write(a, old_fh, 5 * 1024, ConstPayload::virtual_bytes(1024));
    const std::uint64_t seeks = fs_.total_seeks();
    // Contiguous on the new handle's object on OST 1: no seek.
    fs_.write(a, new_fh, 4 * 1024, ConstPayload::virtual_bytes(1024));
    EXPECT_EQ(fs_.total_seeks(), seeks);
  });
}

TEST_F(PfsFixture, LargerRequestsFasterPerByte) {
  const auto fh = fs_.create("/i");
  in_actor([&](sim::Actor& a) {
    const sim::SimTime t0 = a.now();
    for (int i = 0; i < 16; ++i) {
      fs_.write(a, fh, 1 << 20, ConstPayload::virtual_bytes(1024));
    }
    const sim::SimTime small = a.now() - t0;
    const sim::SimTime t1 = a.now();
    fs_.write(a, fh, 2 << 20, ConstPayload::virtual_bytes(16 * 1024));
    const sim::SimTime large = a.now() - t1;
    EXPECT_GT(small, large);  // 16 scattered writes >> one merged write
  });
}

TEST(Memory, UniformLeaseAndPressure) {
  sim::ClusterConfig c;
  c.num_nodes = 2;
  auto mm = node::MemoryManager::uniform(c, 1000);
  EXPECT_EQ(mm.available(0), 1000u);
  {
    node::Lease l = mm.lease(0, 600);
    EXPECT_EQ(l.pressure(), 0.0);
    EXPECT_EQ(l.bw_scale(), 1.0);
    EXPECT_EQ(mm.available(0), 400u);
    // Second lease overcommits by 200/600.
    node::Lease l2 = mm.lease(0, 600);
    EXPECT_NEAR(l2.pressure(), 200.0 / 600.0, 1e-12);
    EXPECT_LT(l2.bw_scale(), 1.0);
    EXPECT_EQ(mm.available(0), 0u);
    EXPECT_EQ(mm.high_water(0), 1200u);
  }
  EXPECT_EQ(mm.available(0), 1000u);  // RAII released
  EXPECT_EQ(mm.available(1), 1000u);  // other node untouched
}

TEST(Memory, LeaseMoveSemantics) {
  sim::ClusterConfig c;
  c.num_nodes = 1;
  auto mm = node::MemoryManager::uniform(c, 1000);
  node::Lease a = mm.lease(0, 300);
  node::Lease b = std::move(a);
  EXPECT_FALSE(a.active());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(b.active());
  EXPECT_EQ(mm.available(0), 700u);
  b.release();
  EXPECT_EQ(mm.available(0), 1000u);
  b.release();  // idempotent
}

TEST(Memory, VarianceDrawsDeterministicAndClamped) {
  sim::ClusterConfig c;
  c.num_nodes = 32;
  c.node_memory = 1ull << 30;
  node::MemoryVariance var;
  var.relative_stdev = 0.5;
  var.floor_bytes = 1 << 20;
  node::MemoryManager a(c, 16 << 20, var, 7);
  node::MemoryManager b(c, 16 << 20, var, 7);
  node::MemoryManager other(c, 16 << 20, var, 8);
  bool any_diff = false;
  double sum = 0;
  for (int n = 0; n < 32; ++n) {
    EXPECT_EQ(a.capacity(n), b.capacity(n));
    any_diff = any_diff || a.capacity(n) != other.capacity(n);
    EXPECT_GE(a.capacity(n), var.floor_bytes);
    EXPECT_LE(a.capacity(n), c.node_memory);
    sum += static_cast<double>(a.capacity(n));
  }
  EXPECT_TRUE(any_diff);
  EXPECT_NEAR(sum / 32.0, 16.0 * (1 << 20), 6.0 * (1 << 20));
}

TEST(Memory, PressureBandwidthBlend) {
  sim::ClusterConfig c;
  c.num_nodes = 1;
  c.membus_bandwidth = 1000.0;
  c.swap_bandwidth = 10.0;
  auto mm = node::MemoryManager::uniform(c, 100);
  EXPECT_DOUBLE_EQ(mm.pressure_bw_scale(0.0), 1.0);
  // Fully swapped: 100x slower than the fast path.
  EXPECT_NEAR(mm.pressure_bw_scale(1.0), 0.01, 1e-9);
  // Half swapped: time = 0.5/1000 + 0.5/10 per byte.
  EXPECT_NEAR(mm.pressure_bw_scale(0.5), 1.0 / (0.5 + 0.5 * 100), 1e-9);
  // Against a slower fast path the penalty is milder.
  EXPECT_GT(mm.bw_scale_for(0.5, 100.0), mm.pressure_bw_scale(0.5));
  EXPECT_THROW(mm.pressure_bw_scale(1.5), util::Error);
}

}  // namespace
}  // namespace mcio
