// The PFS request census of the small-request regime: many ranks with one
// 16 KiB interleaved transfer each, on the bench testbed (1 MiB stripes,
// 12 ranks per node, 16 MiB mean aggregation memory at 0.5 stdev). Each
// collective RPC that reaches a new place on an OST pays a seek, so the
// number of requests the servers see decides the bandwidth here (Thakur,
// Gropp and Lusk; Kang et al.). MCCIO's file domains lie on the stripe
// grid, so it issues no more RPCs and no more seeks than two-phase, whose
// domains are rounded up to whole stripes.
#include <gtest/gtest.h>

#include <cstdint>

#include "common.h"  // the bench harness (tests/CMakeLists adds bench/)
#include "core/experiment.h"

namespace mcio {
namespace {

struct Census {
  std::uint64_t rpcs = 0;
  std::uint64_t seeks = 0;
  int aggregators = 0;
};

/// One write and read of `nodes` × 12 ranks × 16 KiB through `kind`;
/// the PFS counters cover both phases.
Census census(int nodes, core::DriverKind kind) {
  const bench::Testbed tb{.nodes = nodes, .ranks_per_node = 12};
  constexpr std::uint64_t kLevel = 16ull << 20;
  core::SimStack stack(tb.stack(kLevel));
  const auto r = core::run_write_read(
      stack, kind, {}, bench::hints_at(kLevel), nodes * 12,
      bench::ior_plans({.block_size = 16ull << 10,
                        .transfer_size = 16ull << 10}));
  return {stack.fs().total_rpcs(), stack.fs().total_seeks(),
          r.write_stats.num_aggregators()};
}

/// Pins both drivers' census and MCCIO's bound against two-phase.
void expect_census(int nodes, const Census& two_phase, const Census& mccio) {
  const Census tp = census(nodes, core::DriverKind::kTwoPhase);
  const Census mc = census(nodes, core::DriverKind::kMccio);
  EXPECT_EQ(tp.rpcs, two_phase.rpcs);
  EXPECT_EQ(tp.seeks, two_phase.seeks);
  EXPECT_EQ(tp.aggregators, two_phase.aggregators);
  EXPECT_EQ(mc.rpcs, mccio.rpcs);
  EXPECT_EQ(mc.seeks, mccio.seeks);
  EXPECT_EQ(mc.aggregators, mccio.aggregators);
  EXPECT_LE(mc.rpcs, tp.rpcs);
  EXPECT_LE(mc.seeks, tp.seeks);
}

// 1.9 MiB over 2 stripes. Cut into sub-stripe leaves, the same MCCIO
// collective took 10 aggregators, 20 RPCs and 14 seeks.
TEST(RequestCensus, TenNodesSixteenKiB) {
  expect_census(10, {.rpcs = 4, .seeks = 4, .aggregators = 2},
                {.rpcs = 4, .seeks = 4, .aggregators = 2});
}

// 16.1 MiB over 17 stripes. Cut into sub-stripe leaves, the same MCCIO
// collective took 69 aggregators, 138 RPCs and 119 seeks.
TEST(RequestCensus, EightySixNodesSixteenKiB) {
  expect_census(86, {.rpcs = 34, .seeks = 34, .aggregators = 17},
                {.rpcs = 34, .seeks = 34, .aggregators = 17});
}

}  // namespace
}  // namespace mcio
