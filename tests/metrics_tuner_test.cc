// Metrics aggregation and the §3 parameter tuner.
#include <gtest/gtest.h>

#include "core/tuner.h"
#include "metrics/collective_stats.h"

namespace mcio {
namespace {

TEST(CollectiveStats, AggregatorAccounting) {
  metrics::CollectiveStats stats;
  stats.record_aggregator({.rank = 0,
                           .node = 0,
                           .buffer_bytes = 100,
                           .pressure = 0.0,
                           .bytes_received = 400,
                           .bytes_sent = 0,
                           .io_bytes = 400,
                           .rounds = 4});
  stats.record_aggregator({.rank = 5,
                           .node = 1,
                           .buffer_bytes = 300,
                           .pressure = 0.5,
                           .bytes_received = 800,
                           .bytes_sent = 0,
                           .io_bytes = 800,
                           .rounds = 3});
  stats.record_aggregator({.rank = 6,
                           .node = 1,
                           .buffer_bytes = 200,
                           .pressure = 0.0,
                           .bytes_received = 0,
                           .bytes_sent = 0,
                           .io_bytes = 0,
                           .rounds = 0});
  EXPECT_EQ(stats.num_aggregators(), 3);
  const auto buffers = stats.buffer_stats();
  EXPECT_DOUBLE_EQ(buffers.mean(), 200.0);
  EXPECT_DOUBLE_EQ(buffers.min(), 100.0);
  EXPECT_DOUBLE_EQ(buffers.max(), 300.0);
  EXPECT_NEAR(stats.pressure_stats().mean(), 0.5 / 3.0, 1e-12);
  const auto per_node = stats.per_node_buffer_bytes();
  EXPECT_EQ(per_node.at(0), 100u);
  EXPECT_EQ(per_node.at(1), 500u);  // two co-located aggregators sum
}

TEST(CollectiveStats, ShuffleClassification) {
  metrics::CollectiveStats stats;
  stats.record_shuffle(0, 0, 10);
  stats.record_shuffle(0, 1, 20);
  stats.record_shuffle(2, 1, 30);
  EXPECT_EQ(stats.shuffle_intra_node(), 10u);
  EXPECT_EQ(stats.shuffle_inter_node(), 50u);
  EXPECT_EQ(stats.shuffle_total(), 60u);
  stats.record_rmw(7);
  stats.record_io(100);
  EXPECT_EQ(stats.rmw_bytes(), 7u);
  EXPECT_EQ(stats.io_bytes(), 100u);
  stats.clear();
  EXPECT_EQ(stats.shuffle_total(), 0u);
  EXPECT_EQ(stats.num_aggregators(), 0);
}

// Ladder trails compare whole: a difference in any field, the first,
// the last or a virtual-seconds total, makes two trails unequal.
TEST(CollectiveStats, DegradationTrailsCompareWhole) {
  metrics::CollectiveStats a;
  metrics::CollectiveStats b;
  EXPECT_TRUE(a.degradation() == b.degradation());
  a.record_denial();
  EXPECT_FALSE(a.degradation() == b.degradation());
  b.record_denial();
  b.record_donor_revocation();
  EXPECT_FALSE(a.degradation() == b.degradation());
  a.record_donor_revocation();
  a.record_grant_delay(0.25);
  b.record_grant_delay(0.5);
  EXPECT_FALSE(a.degradation() == b.degradation());
  a.record_grant_delay(0.25);
  b.record_grant_delay(0.0);
  EXPECT_TRUE(a.degradation() == b.degradation());
}

class TunerTest : public ::testing::Test {
 protected:
  static sim::ClusterConfig cluster() {
    sim::ClusterConfig c;
    c.num_nodes = 4;
    c.ranks_per_node = 4;
    return c;
  }
  static pfs::PfsConfig pfs() {
    pfs::PfsConfig p;
    p.num_osts = 8;
    p.stripe_unit = 1 << 20;
    p.ost_write_bandwidth = 200e6;
    p.seek_latency = 10e-3;
    p.store_data = false;
    return p;
  }
};

TEST_F(TunerTest, ProbeBandwidthPositiveAndMonotoneInSize) {
  core::Tuner tuner(cluster(), pfs());
  const double small =
      tuner.probe_write_bandwidth(1, 1, 1 << 20, 64 << 20);
  const double large =
      tuner.probe_write_bandwidth(1, 1, 32 << 20, 64 << 20);
  EXPECT_GT(small, 0.0);
  // Bigger streams amortize seeks: at least as fast.
  EXPECT_GE(large, small * 0.99);
}

TEST_F(TunerTest, ProbeDeterministic) {
  core::Tuner tuner(cluster(), pfs());
  EXPECT_DOUBLE_EQ(tuner.probe_write_bandwidth(2, 1, 4 << 20, 32 << 20),
                   tuner.probe_write_bandwidth(2, 1, 4 << 20, 32 << 20));
}

TEST_F(TunerTest, TuneProducesConsistentParameters) {
  core::Tuner tuner(cluster(), pfs());
  const auto r = tuner.tune();
  EXPECT_GE(r.msg_ind, 1u << 20);
  EXPECT_LE(r.msg_ind, 128u << 20);
  EXPECT_GE(r.n_ah, 1);
  EXPECT_LE(r.n_ah, 4);
  EXPECT_EQ(r.mem_min,
            static_cast<std::uint64_t>(r.n_ah) * r.msg_ind);
  EXPECT_GE(r.msg_group, r.msg_ind);
  const auto cfg = r.to_config();
  EXPECT_EQ(cfg.msg_ind, r.msg_ind);
  EXPECT_EQ(cfg.msg_group, r.msg_group);
  EXPECT_EQ(cfg.n_ah, r.n_ah);
}

}  // namespace
}  // namespace mcio
