// End-to-end integration: both collective drivers move real bytes through
// the full stack (datatypes → plans → exchange → simulated Lustre) and the
// results are verified against the deterministic pattern.
#include <gtest/gtest.h>

#include <tuple>

#include "testing.h"
#include "workloads/collperf.h"
#include "workloads/ior.h"
#include "workloads/strided.h"

namespace mcio {
namespace {

using mcio::testing::round_trip;

io::AccessPlan strided_factory(int rank, int nprocs,
                               std::vector<std::byte>& storage) {
  workloads::StridedConfig cfg;
  cfg.block = 3000;  // deliberately unaligned with pages and stripes
  cfg.stride = 7168;
  cfg.count = 9;
  storage.resize(workloads::strided_bytes_per_rank(cfg));
  return workloads::strided_plan(rank, nprocs, cfg,
                                 util::Payload::of(storage));
}

io::AccessPlan ior_interleaved_factory(int rank, int nprocs,
                                       std::vector<std::byte>& storage) {
  workloads::IorConfig cfg;
  cfg.block_size = 64 << 10;
  cfg.transfer_size = 8 << 10;
  cfg.segments = 3;
  cfg.interleaved = true;
  storage.resize(workloads::ior_bytes_per_rank(cfg));
  return workloads::ior_plan(rank, nprocs, cfg,
                             util::Payload::of(storage));
}

io::AccessPlan ior_segmented_factory(int rank, int nprocs,
                                     std::vector<std::byte>& storage) {
  workloads::IorConfig cfg;
  cfg.block_size = 96 << 10;
  cfg.transfer_size = 16 << 10;
  cfg.segments = 2;
  cfg.interleaved = false;
  storage.resize(workloads::ior_bytes_per_rank(cfg));
  return workloads::ior_plan(rank, nprocs, cfg,
                             util::Payload::of(storage));
}

io::AccessPlan collperf_factory(int rank, int nprocs,
                                std::vector<std::byte>& storage) {
  workloads::CollPerfConfig cfg;
  cfg.dims = {32, 24, 20};
  cfg.elem_size = 8;
  storage.resize(workloads::collperf_bytes_per_rank(rank, nprocs, cfg));
  return workloads::collperf_plan(rank, nprocs, cfg,
                                  util::Payload::of(storage));
}

TEST(TwoPhaseIntegration, StridedRoundTrip) {
  core::SimStack cluster(mcio::testing::mini_stack());
  io::TwoPhaseDriver driver;
  ASSERT_NO_THROW(
      round_trip(cluster, driver, cluster.total_ranks(), strided_factory));
}

TEST(TwoPhaseIntegration, IorInterleavedRoundTrip) {
  core::SimStack cluster(mcio::testing::mini_stack());
  io::TwoPhaseDriver driver;
  ASSERT_NO_THROW(round_trip(cluster, driver, cluster.total_ranks(),
                             ior_interleaved_factory));
}

TEST(TwoPhaseIntegration, IorSegmentedRoundTrip) {
  core::SimStack cluster(mcio::testing::mini_stack());
  io::TwoPhaseDriver driver;
  ASSERT_NO_THROW(round_trip(cluster, driver, cluster.total_ranks(),
                             ior_segmented_factory));
}

TEST(TwoPhaseIntegration, CollPerfRoundTrip) {
  core::SimStack cluster(mcio::testing::mini_stack());
  io::TwoPhaseDriver driver;
  ASSERT_NO_THROW(round_trip(cluster, driver, cluster.total_ranks(),
                             collperf_factory));
}

TEST(MccioIntegration, StridedRoundTrip) {
  core::SimStack cluster(mcio::testing::mini_stack());
  core::MccioDriver driver;
  driver.config().msg_ind = 128 << 10;
  ASSERT_NO_THROW(
      round_trip(cluster, driver, cluster.total_ranks(), strided_factory));
}

TEST(MccioIntegration, IorInterleavedRoundTrip) {
  core::SimStack cluster(mcio::testing::mini_stack());
  core::MccioDriver driver;
  driver.config().msg_ind = 128 << 10;
  ASSERT_NO_THROW(round_trip(cluster, driver, cluster.total_ranks(),
                             ior_interleaved_factory));
}

TEST(MccioIntegration, IorSegmentedRoundTrip) {
  core::SimStack cluster(mcio::testing::mini_stack());
  core::MccioDriver driver;
  driver.config().msg_ind = 128 << 10;
  ASSERT_NO_THROW(round_trip(cluster, driver, cluster.total_ranks(),
                             ior_segmented_factory));
}

TEST(MccioIntegration, CollPerfRoundTrip) {
  core::SimStack cluster(mcio::testing::mini_stack());
  core::MccioDriver driver;
  driver.config().msg_ind = 128 << 10;
  ASSERT_NO_THROW(round_trip(cluster, driver, cluster.total_ranks(),
                             collperf_factory));
}

TEST(MccioIntegration, RoundTripWithMemoryVariance) {
  core::StackConfig opt = mcio::testing::mini_stack();
  opt.mem_variance.relative_stdev = 0.5;
  opt.mem_mean = 512 << 10;
  core::SimStack cluster(opt);
  core::MccioDriver driver;
  driver.config().msg_ind = 64 << 10;
  ASSERT_NO_THROW(round_trip(cluster, driver, cluster.total_ranks(),
                             ior_interleaved_factory));
}

TEST(MccioIntegration, RoundTripAllComponentsDisabled) {
  core::SimStack cluster(mcio::testing::mini_stack());
  core::MccioDriver driver;
  driver.config().msg_ind = 128 << 10;
  driver.config().group_division = false;
  driver.config().remerging = false;
  driver.config().memory_aware = false;
  ASSERT_NO_THROW(round_trip(cluster, driver, cluster.total_ranks(),
                             collperf_factory));
}

TEST(TwoPhaseIntegration, ExchangeScheduleIdenticalAcrossRuns) {
  // A mini collective with heavy cross-node exchange, run twice on fresh
  // clusters: the round trip byte-verifies the file and the read-back,
  // and the exchange counters pin the message schedule.
  auto run_once = [] {
    core::SimStack cluster(mcio::testing::mini_stack());
    io::TwoPhaseDriver driver;
    metrics::CollectiveStats stats;
    round_trip(
        cluster, driver, cluster.total_ranks(),
        [](int rank, int nprocs, std::vector<std::byte>& storage) {
          storage.resize(96 << 10);
          std::vector<util::Extent> extents;
          // Interleaved 8 KiB chunks.
          for (int c = 0; c < 12; ++c) {
            extents.push_back(
                {static_cast<std::uint64_t>(c * nprocs + rank) * (8 << 10),
                 8 << 10});
          }
          return io::AccessPlan(
              util::ExtentList::normalize(std::move(extents)),
              util::Payload::of(storage));
        },
        /*seed=*/1234, io::Hints{}, &stats);
    return std::make_tuple(stats.msgs_intra_node(), stats.msgs_inter_node(),
                           stats.bytes_inter_node(), stats.io_bytes());
  };
  const auto first = run_once();
  EXPECT_GT(std::get<1>(first), 0u);
  EXPECT_EQ(run_once(), first);
}

}  // namespace
}  // namespace mcio
