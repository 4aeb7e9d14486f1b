// Memory-pressure fault injection and graceful degradation: Lease
// lifetime safety, FaultPlan schedule properties (determinism, nested
// fault sets across rates, exhaustion), and faulted collective round
// trips — the shrink/spill ladder and the independent-I/O fallback must
// still move every byte correctly, bit-identically across repeat runs —
// and the data-phase window backing's ladder transitions, driven directly.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "node/fault.h"
#include "node/memory.h"
#include "testing.h"
#include "verify/auditor.h"
#include "workloads/ior.h"

namespace mcio {
namespace {

using mcio::testing::round_trip;

sim::ClusterConfig small_cluster(int nodes) {
  sim::ClusterConfig c;
  c.num_nodes = nodes;
  c.ranks_per_node = 2;
  return c;
}

TEST(Lease, MoveTransfersOwnership) {
  auto mgr = node::MemoryManager::uniform(small_cluster(2), 1 << 20);
  node::Lease a = mgr.lease(0, 1000);
  EXPECT_TRUE(a.active());
  EXPECT_EQ(mgr.available(0), (1u << 20) - 1000);
  node::Lease b = std::move(a);
  EXPECT_FALSE(a.active());
  EXPECT_TRUE(b.active());
  // The move must not double-release: the bytes stay leased exactly once.
  EXPECT_EQ(mgr.available(0), (1u << 20) - 1000);
  b.release();
  EXPECT_EQ(mgr.available(0), 1u << 20);
  b.release();  // double release is a no-op
  EXPECT_EQ(mgr.available(0), 1u << 20);
}

TEST(Lease, MoveAssignReleasesHeldLease) {
  auto mgr = node::MemoryManager::uniform(small_cluster(2), 1 << 20);
  node::Lease a = mgr.lease(0, 1000);
  node::Lease b = mgr.lease(1, 2000);
  b = std::move(a);  // b's old lease (node 1) must be returned
  EXPECT_EQ(mgr.available(1), 1u << 20);
  EXPECT_EQ(mgr.available(0), (1u << 20) - 1000);
  EXPECT_EQ(b.node(), 0);
  EXPECT_EQ(b.bytes(), 1000u);
}

TEST(Lease, SelfMoveKeepsLease) {
  auto mgr = node::MemoryManager::uniform(small_cluster(1), 1 << 20);
  node::Lease a = mgr.lease(0, 4096);
  node::Lease& ref = a;  // dodge -Wself-move; the aliasing is the point
  a = std::move(ref);
  EXPECT_TRUE(a.active());
  EXPECT_EQ(a.bytes(), 4096u);
  EXPECT_EQ(mgr.available(0), (1u << 20) - 4096);
  a.release();
  EXPECT_EQ(mgr.available(0), 1u << 20);
}

TEST(Lease, SafeAfterManagerDestroyed) {
  node::Lease survivor;
  {
    auto mgr = std::make_unique<node::MemoryManager>(
        small_cluster(1), 1 << 20, node::MemoryVariance{0.0, 0}, 1);
    survivor = mgr->lease(0, 1 << 10);
    EXPECT_TRUE(survivor.active());
  }
  // The manager is gone; releasing (explicitly and via the destructor)
  // must not touch it.
  EXPECT_NO_THROW(survivor.release());
  node::Lease second;
  {
    auto mgr = std::make_unique<node::MemoryManager>(
        small_cluster(1), 1 << 20, node::MemoryVariance{0.0, 0}, 1);
    second = mgr->lease(0, 1 << 10);
  }
  // `second` now dies with its manager already destroyed.
}

TEST(FaultPlan, DeterministicAcrossInstances) {
  node::FaultConfig cfg;
  cfg.denial_rate = 0.3;
  cfg.delay_rate = 0.3;
  cfg.revoke_rate = 0.3;
  node::FaultPlan a(4, cfg);
  node::FaultPlan b(4, cfg);
  for (int node = 0; node < 4; ++node) {
    for (std::uint64_t site = 0; site < 8; ++site) {
      for (std::uint64_t attempt = 0; attempt < 3; ++attempt) {
        const node::LeaseFault fa = a.lease_fault(node, site, attempt);
        const node::LeaseFault fb = b.lease_fault(node, site, attempt);
        EXPECT_EQ(fa.deny, fb.deny);
        EXPECT_EQ(fa.delay_s, fb.delay_s);
        EXPECT_EQ(fa.revoke_after_s, fb.revoke_after_s);
      }
    }
  }
  EXPECT_EQ(a.attempts(0), b.attempts(0));
}

TEST(FaultPlan, DenialSetsNestedAcrossRates) {
  // Every denial at a lower rate must also fire at every higher rate
  // (same seed): the property that makes fault sweeps monotone.
  const std::vector<double> rates = {0.05, 0.2, 0.5, 0.9};
  std::vector<std::vector<bool>> denied(rates.size());
  for (std::size_t r = 0; r < rates.size(); ++r) {
    node::FaultConfig cfg;
    cfg.denial_rate = rates[r];
    node::FaultPlan plan(4, cfg);
    for (int node = 0; node < 4; ++node) {
      for (std::uint64_t site = 0; site < 16; ++site) {
        for (std::uint64_t attempt = 0; attempt < 4; ++attempt) {
          denied[r].push_back(plan.lease_fault(node, site, attempt).deny);
        }
      }
    }
  }
  std::size_t low_total = 0;
  for (std::size_t r = 1; r < rates.size(); ++r) {
    for (std::size_t i = 0; i < denied[r].size(); ++i) {
      if (denied[r - 1][i]) {
        EXPECT_TRUE(denied[r][i]);
      }
    }
  }
  for (const bool d : denied[0]) low_total += d ? 1 : 0;
  EXPECT_GT(low_total, 0u);                       // the low rate fires…
  std::size_t high_total = 0;
  for (const bool d : denied.back()) high_total += d ? 1 : 0;
  EXPECT_GT(high_total, low_total);               // …and the high rate more
}

TEST(FaultPlan, ExhaustedNodeAlwaysDenies) {
  node::FaultConfig cfg;
  cfg.exhaust_rate = 1.0;
  node::FaultPlan plan(3, cfg);
  EXPECT_EQ(plan.num_exhausted(), 3);
  for (int node = 0; node < 3; ++node) {
    EXPECT_TRUE(plan.exhausted(node));
    EXPECT_TRUE(plan.lease_fault(node, 0, 0).deny);
  }
  auto mgr = node::MemoryManager::uniform(small_cluster(3), 1 << 20);
  EXPECT_GT(mgr.available(0), 0u);
  mgr.set_fault_plan(&plan);
  EXPECT_EQ(mgr.available(0), 0u);  // exhausted nodes report nothing free
  EXPECT_FALSE(mgr.try_lease(0, 1 << 10).granted);
  mgr.set_fault_plan(nullptr);
  EXPECT_GT(mgr.available(0), 0u);
}

TEST(MemoryManager, TryLeaseWithoutPlanIsPlainLease) {
  auto mgr = node::MemoryManager::uniform(small_cluster(1), 1 << 20);
  node::LeaseAttempt att = mgr.try_lease(0, 1 << 10);
  EXPECT_TRUE(att.granted);
  EXPECT_EQ(att.delay_s, 0.0);
  EXPECT_TRUE(att.lease.active());
  EXPECT_EQ(mgr.available(0), (1u << 20) - (1u << 10));
}

/// One grant's outcome, comparable across runs.
struct Outcome {
  bool granted = false;
  double delay_s = 0.0;
  double revoke_after = 0.0;
  friend bool operator==(const Outcome&, const Outcome&) = default;
};

Outcome outcome_of(node::LeaseAttempt& att) {
  Outcome o{att.granted, att.delay_s,
            att.granted ? att.lease.revoke_after() : 0.0};
  att.lease.release();
  return o;
}

node::FaultConfig mixed_faults() {
  node::FaultConfig cfg;
  cfg.denial_rate = 0.4;
  cfg.delay_rate = 0.4;
  cfg.revoke_rate = 0.4;
  return cfg;
}

TEST(MemoryManager, BorrowsLeaveDonorScheduleUnchanged) {
  // Node 1's own acquisitions at one site, with and without borrows aimed
  // at node 1 between them: the borrows draw from node 1's schedule, but
  // at a salted site, so the local outcomes must not move.
  constexpr std::uint64_t kSite = 1 << 16;
  constexpr int kAcquisitions = 6;
  constexpr std::uint64_t kRetries = 3;
  const auto run = [&](bool borrows) {
    auto mgr = node::MemoryManager::uniform(small_cluster(2), 1 << 20);
    node::FaultPlan plan(2, mixed_faults());
    mgr.set_fault_plan(&plan);
    std::vector<Outcome> local;
    for (int a = 0; a < kAcquisitions; ++a) {
      for (std::uint64_t attempt = 0; attempt < kRetries; ++attempt) {
        if (borrows) {
          node::LeaseAttempt b =
              mgr.try_borrow(0, 4096, /*reserve=*/0, kSite, attempt);
          EXPECT_EQ(b.node, 1);
          outcome_of(b);
        }
        node::LeaseAttempt l = mgr.try_lease(1, 4096, kSite, attempt);
        EXPECT_EQ(l.node, 1);
        local.push_back(outcome_of(l));
      }
    }
    const std::uint64_t draws = kAcquisitions * kRetries;
    EXPECT_EQ(plan.attempts(1), borrows ? 2 * draws : draws);
    EXPECT_EQ(plan.attempts(0), 0u);  // the borrower draws nothing
    return local;
  };
  const std::vector<Outcome> alone = run(false);
  EXPECT_EQ(run(true), alone);
  // The schedule is mixed, so the comparison covers grants and denials.
  EXPECT_NE(std::count_if(alone.begin(), alone.end(),
                          [](const Outcome& o) { return o.granted; }),
            0);
  EXPECT_NE(std::count_if(alone.begin(), alone.end(),
                          [](const Outcome& o) { return !o.granted; }),
            0);
}

TEST(MemoryManager, BorrowWithoutDonorConsumesNoDraw) {
  auto mgr = node::MemoryManager::uniform(small_cluster(3), 1 << 20);
  node::FaultPlan plan(3, mixed_faults());
  mgr.set_fault_plan(&plan);
  // A reserve no node can keep beside the ask: nobody qualifies.
  node::LeaseAttempt att = mgr.try_borrow(0, 4096, /*reserve=*/1 << 20);
  EXPECT_FALSE(att.granted);
  EXPECT_EQ(att.node, -1);
  EXPECT_FALSE(att.lease.active());
  for (int n = 0; n < 3; ++n) {
    EXPECT_EQ(plan.attempts(n), 0u) << "node " << n;
    EXPECT_EQ(mgr.available(n), 1u << 20) << "node " << n;
  }
}

TEST(MemoryManager, ElectDonorHonoursReserveAndBreaksTiesLow) {
  auto mgr = node::MemoryManager::uniform(small_cluster(4), 1 << 20);
  constexpr std::uint64_t kHalf = 1 << 19;
  // Nodes 1, 2 and 3 tie: the lowest id other than the borrower wins.
  EXPECT_EQ(mgr.elect_donor(0, 4096, 0), 1);
  EXPECT_EQ(mgr.elect_donor(1, 4096, 0), 0);
  // The reserve is headroom left after the ask: an exact fit qualifies,
  // one byte more does not.
  EXPECT_EQ(mgr.elect_donor(0, kHalf, kHalf), 1);
  EXPECT_EQ(mgr.elect_donor(0, kHalf, kHalf + 1), -1);
  // The most available node wins over a lower id...
  node::Lease on1 = mgr.lease(1, 8192);
  node::Lease on2 = mgr.lease(2, 4096);
  EXPECT_EQ(mgr.elect_donor(0, 4096, 0), 3);
  // A reserve the best node cannot keep rules out every node.
  EXPECT_EQ(mgr.elect_donor(0, kHalf, kHalf + 1), -1);
  node::Lease on3 = mgr.lease(3, 4096);
  EXPECT_EQ(mgr.elect_donor(0, 4096, 0), 2);  // 2 and 3 tie again
  EXPECT_EQ(mgr.elect_donor(0, kHalf, kHalf - 4096), 2);
  EXPECT_EQ(mgr.elect_donor(0, kHalf, kHalf - 4095), -1);
}

io::AccessPlan ior_factory(int rank, int nprocs,
                           std::vector<std::byte>& storage) {
  workloads::IorConfig cfg;
  cfg.block_size = 64 << 10;
  cfg.transfer_size = 8 << 10;
  cfg.segments = 2;
  cfg.interleaved = true;
  storage.resize(workloads::ior_bytes_per_rank(cfg));
  return workloads::ior_plan(rank, nprocs, cfg,
                             util::Payload::of(storage));
}

/// Round trip with a fault plan attached; returns the collected stats of
/// the write phase (the ladder counters this test cares about).
void faulted_round_trip(
    const node::FaultConfig& cfg, io::CollectiveDriver& driver,
    const io::Hints& hints, metrics::CollectiveStats* stats,
    const mcio::testing::PlanFactory& factory = ior_factory) {
  core::StackConfig config = mcio::testing::mini_stack();
  config.faults = cfg;
  core::SimStack cluster(config);
  round_trip(cluster, driver, cluster.total_ranks(), factory,
             /*seed=*/42, hints, stats);
}

TEST(FaultedCollective, TotalDenialShrinksThenSpillsAndStaysCorrect) {
  node::FaultConfig cfg;
  cfg.denial_rate = 1.0;  // every attempt denied: the full ladder runs
  io::Hints hints;
  hints.fault_shrink_floor = 8 << 10;
  metrics::CollectiveStats stats;
  core::MccioDriver driver;
  ASSERT_NO_THROW(faulted_round_trip(cfg, driver, hints, &stats));
  const metrics::DegradationStats& d = stats.degradation();
  EXPECT_GT(d.lease_denials, 0u);
  EXPECT_GT(d.lease_retries, 0u);
  EXPECT_GT(d.backoff_s, 0.0);
  EXPECT_GT(d.buffer_shrinks, 0u);
  EXPECT_GT(d.spills, 0u);
  EXPECT_GT(d.spilled_bytes, 0u);
}

TEST(FaultedCollective, TwoPhaseSurvivesTotalDenial) {
  node::FaultConfig cfg;
  cfg.denial_rate = 1.0;
  io::Hints hints;
  hints.fault_shrink_floor = 8 << 10;
  metrics::CollectiveStats stats;
  io::TwoPhaseDriver driver;
  ASSERT_NO_THROW(faulted_round_trip(cfg, driver, hints, &stats));
  EXPECT_GT(stats.degradation().spills, 0u);
}

TEST(FaultedCollective, FullExhaustionFallsBackToIndependent) {
  node::FaultConfig cfg;
  cfg.exhaust_rate = 1.0;  // no node has aggregation memory at all
  metrics::CollectiveStats mccio_stats;
  core::MccioDriver mccio;
  ASSERT_NO_THROW(
      faulted_round_trip(cfg, mccio, io::Hints{}, &mccio_stats));
  EXPECT_GT(mccio_stats.degradation().fallback_ranks, 0u);
  EXPECT_GT(mccio_stats.degradation().fallback_bytes, 0u);

  metrics::CollectiveStats tp_stats;
  io::TwoPhaseDriver two_phase;
  ASSERT_NO_THROW(
      faulted_round_trip(cfg, two_phase, io::Hints{}, &tp_stats));
  EXPECT_GT(tp_stats.degradation().fallback_ranks, 0u);
}

TEST(FaultedCollective, FallbackRankZeroReportsPlanGroups) {
  // Nodes 0 and 1 are exhausted (seeded draw at exhaust=0.3), so the
  // groups on them fall back, rank 0's among them. Rank 0 still reports
  // the plan's group count: fallback ranks negotiate like the rest.
  node::FaultConfig cfg;
  cfg.exhaust_rate = 0.3;
  core::MccioConfig config;
  config.msg_group = 64 << 10;
  core::MccioDriver driver(config);
  const auto serial_ior = [](int rank, int nprocs,
                             std::vector<std::byte>& storage) {
    workloads::IorConfig ior;
    ior.block_size = 64 << 10;
    ior.transfer_size = 8 << 10;
    ior.segments = 1;
    ior.interleaved = false;
    storage.resize(workloads::ior_bytes_per_rank(ior));
    return workloads::ior_plan(rank, nprocs, ior,
                               util::Payload::of(storage));
  };
  metrics::CollectiveStats stats;
  ASSERT_NO_THROW(
      faulted_round_trip(cfg, driver, io::Hints{}, &stats, serial_ior));
  // Ranks 0-7 (nodes 0 and 1) fall back in the write and in the read.
  EXPECT_EQ(stats.degradation().fallback_ranks, 16u);
  EXPECT_EQ(stats.num_groups(), 3);
}

io::Hints hier_hints(std::uint64_t shrink_floor = 0) {
  io::Hints h;
  h.cb_node_leaders = true;
  if (shrink_floor != 0) h.fault_shrink_floor = shrink_floor;
  return h;
}

TEST(FaultedCollective, HierTotalDenialShrinksThenSpillsAndStaysCorrect) {
  // The node-leader hierarchy must compose with the degradation ladder:
  // leaders relay the shrunken window schedule over shm and the combined
  // payloads still land bit-correct.
  node::FaultConfig cfg;
  cfg.denial_rate = 1.0;
  metrics::CollectiveStats stats;
  core::MccioDriver driver;
  ASSERT_NO_THROW(
      faulted_round_trip(cfg, driver, hier_hints(8 << 10), &stats));
  const metrics::DegradationStats& d = stats.degradation();
  EXPECT_GT(d.buffer_shrinks, 0u);
  EXPECT_GT(d.spills, 0u);
}

TEST(FaultedCollective, HierSurvivesMixedFaults) {
  // Denials, grant delays and revocations hitting leaders mid-collective
  // (including the node that elected them) must not wedge either driver.
  node::FaultConfig cfg;
  cfg.denial_rate = 0.3;
  cfg.delay_rate = 0.3;
  cfg.revoke_rate = 0.3;
  for (const bool mccio : {false, true}) {
    io::TwoPhaseDriver two_phase;
    core::MccioDriver mc;
    io::CollectiveDriver& driver =
        mccio ? static_cast<io::CollectiveDriver&>(mc) : two_phase;
    ASSERT_NO_THROW(
        faulted_round_trip(cfg, driver, hier_hints(8 << 10), nullptr));
  }
}

TEST(FaultedCollective, HierFullExhaustionFallsBackToIndependent) {
  // Every node fault-exhausted: the leaders' nodes included. The ladder
  // bottoms out in independent I/O exactly as on the flat path.
  node::FaultConfig cfg;
  cfg.exhaust_rate = 1.0;
  for (const bool mccio : {false, true}) {
    io::TwoPhaseDriver two_phase;
    core::MccioDriver mc;
    io::CollectiveDriver& driver =
        mccio ? static_cast<io::CollectiveDriver&>(mc) : two_phase;
    metrics::CollectiveStats stats;
    ASSERT_NO_THROW(faulted_round_trip(cfg, driver, hier_hints(), &stats));
    EXPECT_GT(stats.degradation().fallback_ranks, 0u);
  }
}

/// Memory-aware aggregator placement routes around whole-node
/// exhaustion at plan time, so on a small cluster the local ladder never
/// bottoms out and the borrow rung stays cold. Pinning placement to the
/// locality order (memory_aware off) forces aggregators onto the
/// exhausted nodes — the deterministic way to drive rung 4 in a test.
core::MccioConfig locality_placement() {
  core::MccioConfig cfg;
  cfg.memory_aware = false;
  return cfg;
}

io::Hints borrow_hints(bool hier = false) {
  io::Hints h;
  h.borrow_far_memory = true;
  // core::SimStack nodes hold ~1 MiB: the default 1 MiB donor reserve would
  // veto every election, so scale it to the testbed.
  h.borrow_donor_reserve = 64 << 10;
  h.fault_shrink_floor = 8 << 10;
  h.cb_node_leaders = hier;
  return h;
}

TEST(BorrowFarMemory, PartialExhaustionBorrowsAndStaysCorrect) {
  // Nodes 0 and 1 are exhausted for the whole run (seeded draw at
  // exhaust=0.3); node 2 keeps its full draw and becomes the donor.
  // Aggregators on the exhausted nodes bottom out their local ladder and
  // must lease fabric-backed windows instead of going independent — and
  // every byte must still land bit-correct.
  node::FaultConfig cfg;
  cfg.exhaust_rate = 0.3;
  metrics::CollectiveStats stats;
  core::MccioDriver driver(locality_placement());
  ASSERT_NO_THROW(
      faulted_round_trip(cfg, driver, borrow_hints(), &stats));
  const metrics::DegradationStats& d = stats.degradation();
  EXPECT_GT(d.borrows, 0u);
  EXPECT_GT(d.borrowed_bytes, 0u);
  EXPECT_EQ(d.fallback_ranks, 0u);  // the rescue kept every group collective
}

TEST(BorrowFarMemory, DonorRevocationDemotesCleanly) {
  // Every granted lease — donor leases included — is revoked shortly
  // after the grant. Borrowed windows must migrate or demote without
  // corrupting data, and the donor-side revocations must be counted
  // separately from local ones.
  node::FaultConfig cfg;
  cfg.exhaust_rate = 0.3;
  cfg.revoke_rate = 1.0;
  metrics::CollectiveStats stats;
  core::MccioDriver driver(locality_placement());
  ASSERT_NO_THROW(
      faulted_round_trip(cfg, driver, borrow_hints(), &stats));
  const metrics::DegradationStats& d = stats.degradation();
  EXPECT_GT(d.borrows, 0u);
  EXPECT_GT(d.donor_revocations, 0u);
}

TEST(BorrowFarMemory, TotalDenialStillDescendsToSpill) {
  // With every lease attempt denied the borrow rung is reached and then
  // denied too (donor draws share the fault plan): the ladder must keep
  // descending to the swap spill instead of wedging in the borrow loop.
  node::FaultConfig cfg;
  cfg.denial_rate = 1.0;
  metrics::CollectiveStats stats;
  core::MccioDriver driver;
  ASSERT_NO_THROW(
      faulted_round_trip(cfg, driver, borrow_hints(), &stats));
  const metrics::DegradationStats& d = stats.degradation();
  EXPECT_GT(d.borrow_denials, 0u);
  EXPECT_GT(d.spills, 0u);
  EXPECT_EQ(d.borrows, 0u);
}

TEST(BorrowFarMemory, FullExhaustionHasNoDonorAndFallsBack) {
  // Every node exhausted: there is nobody to borrow from. The hint must
  // not keep dead groups alive — the plan-time independent fallback
  // still fires exactly as with borrow off.
  node::FaultConfig cfg;
  cfg.exhaust_rate = 1.0;
  metrics::CollectiveStats stats;
  core::MccioDriver driver;
  ASSERT_NO_THROW(
      faulted_round_trip(cfg, driver, borrow_hints(), &stats));
  const metrics::DegradationStats& d = stats.degradation();
  EXPECT_EQ(d.borrows, 0u);
  EXPECT_GT(d.fallback_ranks, 0u);
}

TEST(BorrowFarMemory, ComposesWithNodeLeaderHierarchy) {
  // Leaders on exhausted nodes run their combine windows out of borrowed
  // fabric memory while relaying over shm — the two hints must compose
  // without wedging and without corrupting either phase.
  node::FaultConfig cfg;
  cfg.exhaust_rate = 0.3;
  metrics::CollectiveStats stats;
  core::MccioDriver driver(locality_placement());
  ASSERT_NO_THROW(
      faulted_round_trip(cfg, driver, borrow_hints(/*hier=*/true),
                         &stats));
  EXPECT_GT(stats.degradation().borrows, 0u);
}

TEST(BorrowFarMemory, AuditorSeesBalancedDonorLeases) {
  // Every donor lease granted over the fabric must be released by the
  // end of the collective that took it: the lease ledger (per manager,
  // per node) has to balance even under revocation churn.
  core::StackConfig config = mcio::testing::mini_stack();
  config.faults = node::FaultConfig{.revoke_rate = 0.5, .exhaust_rate = 0.3};
  config.audit = core::Audit::kDeferred;
  core::SimStack cluster(config);
  metrics::CollectiveStats stats;
  core::MccioDriver driver(locality_placement());
  round_trip(cluster, driver, cluster.total_ranks(), ior_factory,
             /*seed=*/42, borrow_hints(), &stats);
  EXPECT_GT(stats.degradation().borrows, 0u);
  for (const verify::Finding& f : cluster.auditor()->findings()) {
    ADD_FAILURE() << f.kind << ": " << f.message;
  }
}

// --- WindowBacking driven directly: one aggregator rank, no fault plan.
// Grants are built by hand, so a revocation is due exactly when the test
// advances past revoke_after, and with no plan a re-borrow is granted
// whenever a donor with headroom exists.

constexpr std::uint64_t kWindow = 256 << 10;

/// Runs `body` on rank 0 of a fresh core::SimStack (three 1 MiB nodes) with
/// a context whose stats land in `stats`.
void with_backing_context(
    const io::Hints& hints, metrics::CollectiveStats* stats,
    const std::function<void(core::SimStack&, io::CollContext&)>& body) {
  core::SimStack cluster(mcio::testing::mini_stack());
  cluster.machine().run(1, [&](mpi::Rank& rank) {
    io::CollContext ctx;
    ctx.rank = &rank;
    ctx.comm = &rank.world();
    ctx.memory = &cluster.memory();
    ctx.hints = hints;
    ctx.stats = stats;
    body(cluster, ctx);
  });
}

io::BufferGrant revocable_grant(int donor = -1) {
  io::BufferGrant g;
  g.window_bytes = kWindow;
  g.revoke_after = 1e-3;
  g.borrow_donor = donor;
  return g;
}

using State = io::WindowBacking::State;

TEST(WindowBacking, SwapAfterFailedReborrowIsPromotedLater) {
  // A local window is revoked while no donor has headroom: the re-borrow
  // fails and the window falls to swap, probing. Once a donor frees up,
  // the next round's probe promotes it back onto the fabric — a borrow
  // the negotiation (which borrowed nothing) never made.
  metrics::CollectiveStats stats;
  with_backing_context(borrow_hints(), &stats, [&](core::SimStack& cluster,
                                                   io::CollContext& ctx) {
    node::Lease hold1 = cluster.memory().lease(1, 1 << 20);
    node::Lease hold2 = cluster.memory().lease(2, 1 << 20);
    io::WindowBacking b(ctx, stats);
    b.open(revocable_grant(), /*site=*/0);
    EXPECT_EQ(b.state(), State::kLocal);
    b.step();  // not due yet
    EXPECT_EQ(b.state(), State::kLocal);
    ctx.rank->actor().advance(2e-3);
    b.step();
    EXPECT_EQ(b.state(), State::kSwap);
    EXPECT_TRUE(b.probing());
    b.step();  // still no donor: keeps probing, no denial counted
    EXPECT_EQ(b.state(), State::kSwap);
    b.charge_source(1000);
    hold2.release();
    b.step();
    EXPECT_EQ(b.state(), State::kBorrowed);
    EXPECT_FALSE(b.probing());
    b.charge_source(3000);
    b.close();
    hold1.release();
  });
  const metrics::DegradationStats& d = stats.degradation();
  EXPECT_EQ(d.revocations, 1u);
  EXPECT_EQ(d.donor_revocations, 0u);
  EXPECT_EQ(d.borrows, 1u);
  EXPECT_EQ(d.borrow_denials, 0u);
  EXPECT_EQ(d.spilled_bytes, 1000u);
  EXPECT_EQ(d.borrowed_bytes, 3000u);
}

TEST(WindowBacking, SpilledAtNegotiationNeverProbes) {
  // Donors have headroom and the borrow hint is on, but a window the
  // ladder spilled at negotiation stays swap-backed for the whole domain.
  metrics::CollectiveStats stats;
  with_backing_context(borrow_hints(), &stats,
                       [&](core::SimStack&, io::CollContext& ctx) {
    io::BufferGrant g;
    g.window_bytes = kWindow;
    g.spilled = true;
    io::WindowBacking b(ctx, stats);
    b.open(g, /*site=*/0);
    for (int round = 0; round < 4; ++round) {
      ctx.rank->actor().advance(1.0);
      b.step();
      EXPECT_EQ(b.state(), State::kSwap);
      EXPECT_FALSE(b.probing());
      b.charge_source(500);
    }
    b.close();
  });
  const metrics::DegradationStats& d = stats.degradation();
  EXPECT_EQ(d.borrows, 0u);
  EXPECT_EQ(d.borrow_denials, 0u);
  EXPECT_EQ(d.revocations, 0u);
  EXPECT_EQ(d.spilled_bytes, 2000u);
}

TEST(WindowBacking, RevokedBorrowedWindowCountsAsDonorRevocation) {
  // With the borrow hint off a revoked borrowed window cannot migrate:
  // it falls to swap for good, counted against the donor.
  io::Hints hints = borrow_hints();
  hints.borrow_far_memory = false;
  metrics::CollectiveStats stats;
  with_backing_context(hints, &stats, [&](core::SimStack&,
                                          io::CollContext& ctx) {
    io::WindowBacking b(ctx, stats);
    b.open(revocable_grant(/*donor=*/2), /*site=*/0);
    EXPECT_EQ(b.state(), State::kBorrowed);
    const sim::SimTime t0 = ctx.rank->actor().now();
    b.charge_file(kWindow);  // a borrowed window's PFS side crosses
    EXPECT_GT(ctx.rank->actor().now(), t0);  // the donor's fabric
    ctx.rank->actor().advance(2e-3);
    b.step();
    EXPECT_EQ(b.state(), State::kSwap);
    EXPECT_FALSE(b.probing());
    const sim::SimTime t1 = ctx.rank->actor().now();
    b.charge_file(kWindow);  // swapped: no fabric crossing any more
    EXPECT_EQ(ctx.rank->actor().now(), t1);
    b.close();
  });
  const metrics::DegradationStats& d = stats.degradation();
  EXPECT_EQ(d.donor_revocations, 1u);
  EXPECT_EQ(d.revocations, 0u);
  EXPECT_EQ(d.borrows, 0u);
}

TEST(WindowBacking, RevokedBorrowedWindowMigratesToNextDonor) {
  // With the hint on, the same revocation re-elects a donor instead: the
  // window stays on the fabric, now backed by the other peer.
  metrics::CollectiveStats stats;
  with_backing_context(borrow_hints(), &stats, [&](core::SimStack& cluster,
                                                   io::CollContext& ctx) {
    io::WindowBacking b(ctx, stats);
    b.open(revocable_grant(/*donor=*/2), /*site=*/0);
    EXPECT_EQ(cluster.memory().available(2), (1u << 20) - kWindow);
    ctx.rank->actor().advance(2e-3);
    b.step();
    EXPECT_EQ(b.state(), State::kBorrowed);
    // Node 1 is the richest peer now; the donor-2 lease went back.
    EXPECT_EQ(cluster.memory().available(1), (1u << 20) - kWindow);
    EXPECT_EQ(cluster.memory().available(2), 1u << 20);
    b.close();
  });
  const metrics::DegradationStats& d = stats.degradation();
  EXPECT_EQ(d.donor_revocations, 1u);
  EXPECT_EQ(d.revocations, 0u);
  EXPECT_EQ(d.borrows, 1u);
}

TEST(WindowBacking, ReborrowAdoptsItsProbeLease) {
  // A revoked window re-borrows onto a donor with room for one window
  // plus the reserve but not for two: the probe's grant must become the
  // window's lease, not sit beside a second grant of the same bytes.
  metrics::CollectiveStats stats;
  with_backing_context(borrow_hints(), &stats, [&](core::SimStack& cluster,
                                                   io::CollContext& ctx) {
    constexpr std::uint64_t kFree = 400 << 10;  // >= window + reserve
    static_assert(kFree < 2 * kWindow);
    node::Lease hold1 = cluster.memory().lease(1, (1 << 20) - kFree);
    node::Lease hold2 = cluster.memory().lease(2, (1 << 20) - kFree);
    io::WindowBacking b(ctx, stats);
    b.open(revocable_grant(), /*site=*/0);
    ctx.rank->actor().advance(2e-3);
    b.step();
    EXPECT_EQ(b.state(), State::kBorrowed);
    EXPECT_EQ(b.pressure(), 0.0);
    EXPECT_EQ(cluster.memory().available(1), kFree - kWindow);
    b.close();
    EXPECT_EQ(cluster.memory().available(1), kFree);
    hold1.release();
    hold2.release();
  });
  const metrics::DegradationStats& d = stats.degradation();
  EXPECT_EQ(d.revocations, 1u);
  EXPECT_EQ(d.borrows, 1u);
}

/// One faulted collective write+read; returns per-rank finish times.
std::vector<sim::SimTime> faulted_write_read(bool mccio) {
  core::StackConfig config = mcio::testing::mini_stack();
  config.faults = node::FaultConfig{
      .denial_rate = 0.3, .revoke_rate = 0.3, .delay_rate = 0.3};
  core::SimStack cluster(config);
  const int nranks = cluster.total_ranks();
  std::vector<std::vector<std::byte>> storage(
      static_cast<std::size_t>(nranks));
  return core::run_write_read(
             cluster,
             mccio ? core::DriverKind::kMccio : core::DriverKind::kTwoPhase,
             {}, io::Hints{}, nranks,
             [&](int rank, int p) {
               io::AccessPlan plan = ior_factory(
                   rank, p, storage[static_cast<std::size_t>(rank)]);
               workloads::fill_pattern(plan, 5);
               return plan;
             })
      .finish_times;
}

TEST(FaultedCollective, DeterministicVirtualTimes) {
  // Two identical faulted runs must be bit-identical — backoffs, grant
  // delays and revocations all live in deterministic virtual time.
  for (const bool mccio : {false, true}) {
    const auto a = faulted_write_read(mccio);
    const auto b = faulted_write_read(mccio);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
}

}  // namespace
}  // namespace mcio
