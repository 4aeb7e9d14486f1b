// Driver decision logic: the baseline's even file domains and the MCCIO
// pipeline's run-time plans, inspected via build_plan inside rank bodies.
#include <gtest/gtest.h>

#include "core/drivers.h"
#include "core/mccio_driver.h"
#include "io/two_phase_driver.h"
#include "mpi/machine.h"
#include "node/memory.h"
#include "pfs/pfs.h"
#include "workloads/ior.h"

namespace mcio {
namespace {

using util::Extent;

struct PlanHarness {
  sim::ClusterConfig cluster_cfg;
  pfs::PfsConfig pfs_cfg;

  PlanHarness() {
    cluster_cfg.num_nodes = 4;
    cluster_cfg.ranks_per_node = 3;
    pfs_cfg.num_osts = 4;
    pfs_cfg.stripe_unit = 1 << 16;
    pfs_cfg.store_data = false;
  }

  /// Runs `inspect` on rank 0's exchange plan for the given per-rank
  /// plan factory and driver.
  template <typename Driver>
  void with_plan(Driver& driver,
                 const std::function<io::AccessPlan(int, int)>& make_plan,
                 std::uint64_t mem_mean, double stdev,
                 const std::function<void(const io::ExchangePlan&,
                                          mpi::Comm&)>& inspect) {
    mpi::Machine machine(cluster_cfg);
    pfs::Pfs fs(machine.cluster(), pfs_cfg);
    node::MemoryVariance var;
    var.relative_stdev = stdev;
    node::MemoryManager memory(cluster_cfg, mem_mean, var, 5);
    machine.run(cluster_cfg.total_ranks(), [&](mpi::Rank& rank) {
      io::CollContext ctx;
      ctx.rank = &rank;
      ctx.comm = &rank.world();
      ctx.fs = &fs;
      ctx.file = rank.rank() == 0 ? fs.create("/p") : 0;
      rank.world().barrier();
      ctx.file = fs.open("/p");
      ctx.memory = &memory;
      const auto plan = make_plan(rank.rank(), rank.world().size());
      const auto xplan = driver.build_plan(ctx, plan);
      if (rank.rank() == 0) inspect(*xplan, rank.world());
    });
  }
};

io::AccessPlan ior_virtual(int rank, int nprocs) {
  workloads::IorConfig w;
  w.block_size = 1 << 20;
  w.transfer_size = 1 << 18;
  w.segments = 1;
  w.interleaved = true;
  return workloads::ior_plan(
      rank, nprocs, w,
      util::Payload::virtual_bytes(workloads::ior_bytes_per_rank(w)));
}

void check_common_invariants(const io::ExchangePlan& xplan, int nranks) {
  ASSERT_EQ(xplan.rank_bounds.size(), static_cast<std::size_t>(nranks));
  std::uint64_t pos = 0;
  for (const auto& d : xplan.domains) {
    EXPECT_GE(d.extent.offset, pos);
    EXPECT_GT(d.extent.len, 0u);
    EXPECT_GE(d.aggregator, 0);
    EXPECT_LT(d.aggregator, nranks);
    EXPECT_GT(d.buffer_bytes, 0u);
    pos = d.extent.end();
  }
  // The domains must cover every rank's data.
  util::ExtentList cover;
  for (const auto& d : xplan.domains) cover.add(d.extent);
  for (const auto& b : xplan.rank_bounds) {
    if (!b.empty()) {
      EXPECT_TRUE(cover.covers(b));
    }
  }
}

TEST(DriverKind, LookupInvertsDriverName) {
  core::Drivers drivers(core::MccioConfig{});
  for (const core::DriverKind kind :
       {core::DriverKind::kMccio, core::DriverKind::kTwoPhase,
        core::DriverKind::kIndependent}) {
    EXPECT_EQ(core::driver_kind(core::driver_name(kind)), kind);
    EXPECT_STREQ(drivers.get(kind).name(), core::driver_name(kind));
  }
  EXPECT_EQ(core::driver_kind("bogus"), std::nullopt);
  EXPECT_EQ(core::driver_kind(""), std::nullopt);
  EXPECT_EQ(core::driver_kind("MCCIO"), std::nullopt);
}

TEST(TwoPhasePlan, EvenDomainsOneAggregatorPerNode) {
  PlanHarness h;
  io::TwoPhaseDriver driver;
  h.with_plan(driver, ior_virtual, 8 << 20, 0.0,
              [&](const io::ExchangePlan& xplan, mpi::Comm& comm) {
                check_common_invariants(xplan, comm.size());
                ASSERT_EQ(xplan.domains.size(), 4u);  // one per node
                std::set<int> nodes;
                for (const auto& d : xplan.domains) {
                  EXPECT_EQ(d.buffer_bytes, io::Hints{}.cb_buffer_size);
                  nodes.insert(comm.node_of(d.aggregator));
                  // Aligned to the stripe unit.
                  EXPECT_EQ(d.extent.offset % (1 << 16), 0u);
                }
                EXPECT_EQ(nodes.size(), 4u);
                EXPECT_EQ(xplan.num_groups, 1);
                EXPECT_FALSE(xplan.real_data);
              });
}

TEST(TwoPhasePlan, CbNodesLimitsAggregators) {
  PlanHarness h;
  io::TwoPhaseDriver driver;
  mpi::Machine machine(h.cluster_cfg);
  pfs::Pfs fs(machine.cluster(), h.pfs_cfg);
  auto memory = node::MemoryManager::uniform(h.cluster_cfg, 8 << 20);
  machine.run(12, [&](mpi::Rank& rank) {
    io::CollContext ctx;
    ctx.rank = &rank;
    ctx.comm = &rank.world();
    ctx.fs = &fs;
    ctx.file = rank.rank() == 0 ? fs.create("/q") : 0;
    rank.world().barrier();
    ctx.file = fs.open("/q");
    ctx.memory = &memory;
    ctx.hints.cb_nodes = 2;
    const auto xplan =
        io::TwoPhaseDriver::build_plan(ctx, ior_virtual(rank.rank(), 12));
    EXPECT_EQ(xplan->domains.size(), 2u);
  });
}

TEST(TwoPhasePlan, EmptyEverywhere) {
  PlanHarness h;
  io::TwoPhaseDriver driver;
  h.with_plan(driver,
              [](int, int) { return io::AccessPlan(); },
              8 << 20, 0.0,
              [&](const io::ExchangePlan& xplan, mpi::Comm&) {
                EXPECT_TRUE(xplan.domains.empty());
              });
}

TEST(MccioPlan, InvariantsAndGrouping) {
  PlanHarness h;
  core::MccioDriver driver;
  driver.config().msg_ind = 1 << 20;
  h.with_plan(driver, ior_virtual, 2 << 20, 0.5,
              [&](const io::ExchangePlan& xplan, mpi::Comm& comm) {
                check_common_invariants(xplan, comm.size());
                EXPECT_GE(xplan.num_groups, 1);
                EXPECT_GE(xplan.domains.size(), 1u);
              });
}

TEST(MccioPlan, MemoryAwarePlacementPrefersEndowedNodes) {
  PlanHarness h;
  core::MccioDriver driver;
  driver.config().msg_ind = 1 << 20;
  driver.config().group_division = false;
  // High variance: the plan should put more/larger buffers on the
  // better-endowed nodes.
  h.with_plan(driver, ior_virtual, 1 << 20, 1.0,
              [&](const io::ExchangePlan& xplan, mpi::Comm& comm) {
                check_common_invariants(xplan, comm.size());
                std::map<int, std::uint64_t> per_node;
                for (const auto& d : xplan.domains) {
                  per_node[comm.node_of(d.aggregator)] += d.buffer_bytes;
                }
                EXPECT_GE(per_node.size(), 1u);
              });
}

TEST(MccioPlan, DomainSizesProportionalToBuffers) {
  PlanHarness h;
  core::MccioDriver driver;
  driver.config().msg_ind = 1 << 20;
  h.with_plan(
      driver, ior_virtual, 4 << 20, 0.8,
      [&](const io::ExchangePlan& xplan, mpi::Comm&) {
        // Balanced rounds: domain_bytes / buffer within a small factor
        // across domains (the memory-aware partition's whole point).
        double lo = 1e300, hi = 0;
        for (const auto& d : xplan.domains) {
          const double rounds = static_cast<double>(d.extent.len) /
                                static_cast<double>(d.buffer_bytes);
          lo = std::min(lo, rounds);
          hi = std::max(hi, rounds);
        }
        EXPECT_LE(hi / lo, 3.0) << "unbalanced rounds: " << lo << ".." << hi;
      });
}

TEST(MccioPlan, DisabledComponentsStillCover) {
  PlanHarness h;
  core::MccioDriver driver;
  driver.config().msg_ind = 1 << 20;
  driver.config().group_division = false;
  driver.config().remerging = false;
  driver.config().memory_aware = false;
  h.with_plan(driver, ior_virtual, 2 << 20, 0.5,
              [&](const io::ExchangePlan& xplan, mpi::Comm& comm) {
                check_common_invariants(xplan, comm.size());
                EXPECT_EQ(xplan.num_groups, 1);
              });
}

}  // namespace
}  // namespace mcio
