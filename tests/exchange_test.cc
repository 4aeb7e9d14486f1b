// The exchange engine: plan validation, the route table against per-rank
// reference derivations, RMW/data-sieving behaviour and instrumentation,
// using explicit hand-built exchange plans, and the deterministic
// host-allocation budget of a coll_perf-shaped write and read.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>

#include "io/exchange.h"
#include "mpi/machine.h"
#include "node/memory.h"
#include "pfs/pfs.h"
#include "testing.h"
#include "util/memtrack.h"
#include "util/rng.h"
#include "workloads/collperf.h"
#include "workloads/ior.h"
#include "workloads/pattern.h"

namespace mcio::io {
namespace {

using util::Extent;
using util::Payload;
using mcio::testing::round_trip;

TEST(ExchangePlan, Validation) {
  ExchangePlan xplan;
  xplan.rank_bounds = {{0, 10}, {10, 10}};
  EXPECT_NO_THROW(xplan.validate(2));
  EXPECT_THROW(xplan.validate(3), util::Error);
  xplan.domains.push_back(FileDomain{{0, 10}, 0, 16});
  xplan.domains.push_back(FileDomain{{5, 10}, 1, 16});  // overlap
  EXPECT_THROW(xplan.validate(2), util::Error);
  xplan.domains[1].extent = Extent{10, 10};
  EXPECT_NO_THROW(xplan.validate(2));
  xplan.domains[1].aggregator = 7;  // out of range
  EXPECT_THROW(xplan.validate(2), util::Error);
  xplan.domains[1].aggregator = 1;
  xplan.domains[1].buffer_bytes = 0;
  EXPECT_THROW(xplan.validate(2), util::Error);
}

// --- the route table against per-rank reference derivations ---

/// Who-sends-to-whom as every rank once derived it for itself: a bounds
/// intersect per domain, and a node map electing each node's lowest data
/// rank.
struct RouteReference {
  std::vector<std::vector<int>> clients;       ///< per rank
  std::vector<std::vector<int>> owned;         ///< per rank
  std::vector<std::vector<int>> sources;       ///< per domain
  std::vector<int> leader;                     ///< per rank (hier)
  std::vector<std::vector<int>> members;       ///< per rank (hier)
  std::vector<std::vector<int>> node_domains;  ///< per rank (hier)

  RouteReference(const ExchangePlan& plan, const std::vector<int>& nodes,
                 bool hier) {
    const auto nranks = static_cast<int>(plan.rank_bounds.size());
    const auto ndomains = static_cast<int>(plan.domains.size());
    const auto touches = [&](int r, int i) {
      const Extent b = plan.rank_bounds[static_cast<std::size_t>(r)];
      return !b.empty() &&
             util::intersect(b, plan.domains[static_cast<std::size_t>(i)]
                                    .extent)
                 .has_value();
    };
    clients.resize(static_cast<std::size_t>(nranks));
    owned.resize(static_cast<std::size_t>(nranks));
    sources.resize(static_cast<std::size_t>(ndomains));
    for (int r = 0; r < nranks; ++r) {
      for (int i = 0; i < ndomains; ++i) {
        if (plan.domains[static_cast<std::size_t>(i)].aggregator == r) {
          owned[static_cast<std::size_t>(r)].push_back(i);
        }
        if (touches(r, i)) clients[static_cast<std::size_t>(r)].push_back(i);
      }
    }
    if (!hier) {
      for (int i = 0; i < ndomains; ++i) {
        for (int r = 0; r < nranks; ++r) {
          if (touches(r, i)) sources[static_cast<std::size_t>(i)].push_back(r);
        }
      }
      return;
    }
    std::map<int, std::vector<int>> by_node;
    for (int r = 0; r < nranks; ++r) {
      if (plan.rank_bounds[static_cast<std::size_t>(r)].empty()) continue;
      by_node[nodes[static_cast<std::size_t>(r)]].push_back(r);
    }
    std::vector<std::vector<int>> groups;
    for (auto& [node, group] : by_node) groups.push_back(std::move(group));
    std::sort(groups.begin(), groups.end());  // ascending by leader
    leader.assign(static_cast<std::size_t>(nranks), -1);
    members.resize(static_cast<std::size_t>(nranks));
    node_domains.resize(static_cast<std::size_t>(nranks));
    for (const std::vector<int>& g : groups) {
      const int l = g.front();
      for (const int m : g) leader[static_cast<std::size_t>(m)] = l;
      members[static_cast<std::size_t>(l)] = g;
      for (int i = 0; i < ndomains; ++i) {
        if (std::any_of(g.begin(), g.end(),
                        [&](int m) { return touches(m, i); })) {
          node_domains[static_cast<std::size_t>(l)].push_back(i);
          sources[static_cast<std::size_t>(i)].push_back(l);
        }
      }
    }
  }
};

std::vector<int> to_vector(std::span<const int> row) {
  return {row.begin(), row.end()};
}

/// A random plan on up to 40 ranks spread over random nodes: idle ranks,
/// independent-fallback ranks, one node whose data ranks all fell back,
/// overlapping bounds, and a trailing domain no rank touches.
ExchangePlan random_plan(util::Rng& rng, std::vector<int>* nodes) {
  const int nranks = 1 + static_cast<int>(rng.uniform_u64(40));
  const int nnodes = 1 + static_cast<int>(rng.uniform_u64(8));
  nodes->clear();
  for (int r = 0; r < nranks; ++r) {
    nodes->push_back(static_cast<int>(rng.uniform_u64(nnodes)));
  }
  ExchangePlan plan;
  std::uint64_t end = 0;
  const int ndomains = static_cast<int>(rng.uniform_u64(12));
  for (int i = 0; i < ndomains; ++i) {
    end += rng.uniform_u64(3) * 100;  // a gap, or none
    const std::uint64_t len = 1 + rng.uniform_u64(400);
    plan.domains.push_back(FileDomain{
        {end, len}, static_cast<int>(rng.uniform_u64(nranks)), 64});
    end += len;
  }
  const int fallen_node = static_cast<int>(rng.uniform_u64(nnodes));
  for (int r = 0; r < nranks; ++r) {
    const bool fallback =
        (*nodes)[static_cast<std::size_t>(r)] == fallen_node ||
        rng.uniform_u64(6) == 0;
    if (fallback) {
      plan.independent_ranks.push_back(r);
      plan.rank_bounds.emplace_back();
    } else if (rng.uniform_u64(5) == 0) {
      plan.rank_bounds.emplace_back();  // idle
    } else {
      plan.rank_bounds.push_back(Extent{rng.uniform_u64(end + 100),
                                        1 + rng.uniform_u64(600)});
    }
  }
  // Past every bound: touched by no rank.
  std::uint64_t reach = end;
  for (const Extent& b : plan.rank_bounds) reach = std::max(reach, b.end());
  plan.domains.push_back(FileDomain{{reach + 50, 100}, 0, 64});
  plan.validate(nranks);
  return plan;
}

TEST(RouteTable, MatchesPerRankReference) {
  util::Rng rng(mcio::testing::test_seed());
  std::vector<int> nodes;
  for (int c = 0; c < 300; ++c) {
    const ExchangePlan plan = random_plan(rng, &nodes);
    const auto nranks = static_cast<int>(plan.rank_bounds.size());
    for (const bool hier : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "case " << c << " hier " << hier
                                        << " ranks " << nranks);
      const RouteTable t = RouteTable::derive(plan, nodes, hier);
      const bool expect_hier = hier && nranks > 1;
      const RouteReference ref(plan, nodes, expect_hier);
      ASSERT_EQ(t.hierarchical(), expect_hier);
      ASSERT_EQ(t.ranks(), nranks);
      for (int r = 0; r < nranks; ++r) {
        const auto ru = static_cast<std::size_t>(r);
        const auto [first, last] = t.client_domains(r);
        std::vector<int> clients;
        for (int i = first; i < last; ++i) clients.push_back(i);
        EXPECT_EQ(clients, ref.clients[ru]) << "rank " << r;
        EXPECT_EQ(to_vector(t.owned(r)), ref.owned[ru]) << "rank " << r;
        if (!expect_hier) continue;
        EXPECT_EQ(t.leader(r), ref.leader[ru]) << "rank " << r;
        EXPECT_EQ(to_vector(t.members(r)), ref.members[ru]) << "rank " << r;
        EXPECT_EQ(to_vector(t.node_domains(r)), ref.node_domains[ru])
            << "rank " << r;
      }
      for (std::size_t i = 0; i < plan.domains.size(); ++i) {
        EXPECT_EQ(to_vector(t.sources(static_cast<int>(i))), ref.sources[i])
            << "domain " << i;
      }
    }
  }
}

struct ExchangeHarness {
  sim::ClusterConfig cluster_cfg;
  mpi::Machine machine;
  pfs::Pfs fs;
  node::MemoryManager memory;
  metrics::CollectiveStats stats;

  ExchangeHarness()
      : cluster_cfg(cfg()),
        machine(cluster_cfg),
        fs(machine.cluster(), pcfg()),
        memory(node::MemoryManager::uniform(cluster_cfg, 1 << 20)) {}

  static sim::ClusterConfig cfg() {
    sim::ClusterConfig c;
    c.num_nodes = 2;
    c.ranks_per_node = 2;
    return c;
  }
  static pfs::PfsConfig pcfg() {
    pfs::PfsConfig p;
    p.num_osts = 2;
    p.stripe_unit = 4096;
    return p;
  }

  /// Two ranks write a strided pattern WITH HOLES into one domain;
  /// `late_rank` enters the write `delay` virtual seconds late. Returns the
  /// per-rank finish times.
  std::vector<sim::SimTime> run_holey_write(bool sieving, bool hier = false,
                                            int late_rank = -1,
                                            double delay = 0.0) {
    return machine.run(4, [&](mpi::Rank& rank) {
      CollContext ctx;
      ctx.rank = &rank;
      ctx.comm = &rank.world();
      ctx.fs = &fs;
      if (rank.rank() == 0) fs.create("/x");
      rank.world().barrier();
      ctx.file = fs.open("/x");
      ctx.memory = &memory;
      ctx.stats = &stats;
      ctx.hints.data_sieving_writes = sieving;
      ctx.hints.cb_node_leaders = hier;

      // Ranks 0 and 1 own alternating 100-byte blocks with 100-byte
      // holes between them (ranks 2,3 idle).
      std::vector<Extent> runs;
      std::vector<std::byte> data;
      if (rank.rank() < 2) {
        for (int k = 0; k < 4; ++k) {
          runs.push_back(
              Extent{static_cast<std::uint64_t>(k) * 400 +
                         static_cast<std::uint64_t>(rank.rank()) * 200,
                     100});
        }
        data.resize(400);
      }
      const AccessPlan plan(util::ExtentList::normalize(std::move(runs)),
                            Payload::of(data));
      workloads::fill_pattern(plan, 3);

      // All ranks must agree on the bounds; build them directly.
      const auto xplan = share_exchange_plan(ctx, 0, [] {
        ExchangePlan p;
        p.rank_bounds = {Extent{0, 1300}, Extent{200, 1300}, Extent{},
                         Extent{}};
        p.domains = {FileDomain{{0, 1600}, 3, 800}};
        p.real_data = true;
        return p;
      });
      TwoPhaseExchange exchange(ctx, plan, xplan);
      if (rank.rank() == late_rank) rank.actor().advance(delay);
      exchange.write();
      rank.world().barrier();
    });
  }
};

TEST(Exchange, HoleyWriteWithSievingDoesRmw) {
  ExchangeHarness h;
  h.run_holey_write(/*sieving=*/true);
  EXPECT_GT(h.stats.rmw_bytes(), 0u);
  ASSERT_EQ(h.stats.num_aggregators(), 1);
  const auto& agg = h.stats.aggregators()[0];
  EXPECT_EQ(agg.rank, 3);
  EXPECT_EQ(agg.rounds, 2);  // 1600-byte span, 800-byte buffer
  EXPECT_EQ(agg.bytes_received, 800u);
  // Data landed correctly despite the holes.
  std::string err;
  std::vector<Extent> all;
  for (int r = 0; r < 2; ++r) {
    for (int k = 0; k < 4; ++k) {
      all.push_back(Extent{static_cast<std::uint64_t>(k) * 400 +
                               static_cast<std::uint64_t>(r) * 200,
                           100});
    }
  }
  EXPECT_TRUE(workloads::verify_store(h.fs.store(h.fs.open("/x")), all, 3,
                                      &err))
      << err;
}

TEST(Exchange, HoleyWriteWithoutSievingWritesRuns) {
  ExchangeHarness h;
  h.run_holey_write(/*sieving=*/false);
  EXPECT_EQ(h.stats.rmw_bytes(), 0u);
  // Separate runs: more file-system requests, same bytes.
  EXPECT_EQ(h.stats.io_bytes(), 800u);
  std::string err;
  std::vector<Extent> all;
  for (int r = 0; r < 2; ++r) {
    for (int k = 0; k < 4; ++k) {
      all.push_back(Extent{static_cast<std::uint64_t>(k) * 400 +
                               static_cast<std::uint64_t>(r) * 200,
                           100});
    }
  }
  EXPECT_TRUE(workloads::verify_store(h.fs.store(h.fs.open("/x")), all, 3,
                                      &err))
      << err;
}

TEST(Exchange, ShuffleTrafficClassifiedByNode) {
  ExchangeHarness h;
  h.run_holey_write(true);
  // Sources are ranks 0 (node 0) and 1 (node 0); aggregator is rank 3
  // (node 1): all shuffle bytes are inter-node.
  EXPECT_EQ(h.stats.shuffle_intra_node(), 0u);
  EXPECT_EQ(h.stats.shuffle_inter_node(), 800u);
  // Flat message census: 2 extent lists + 2 data windows from each of the
  // 2 sources, all crossing the interconnect.
  EXPECT_EQ(h.stats.msgs_intra_node(), 0u);
  EXPECT_EQ(h.stats.msgs_inter_node(), 6u);
}

TEST(Exchange, HierarchyCombinesOnNodeAndMatchesFlat) {
  ExchangeHarness h;
  h.run_holey_write(/*sieving=*/true, /*hier=*/true);
  // Node 0's two data ranks elect rank 0 leader. Rank 1's extent list and
  // its two window payloads travel over the node's shm channel; only the
  // leader speaks to the aggregator — 1 merged list + 2 combined windows
  // cross the interconnect (vs 6 messages on the flat path).
  EXPECT_EQ(h.stats.msgs_intra_node(), 3u);
  EXPECT_EQ(h.stats.msgs_inter_node(), 3u);
  // The member→leader staging is intra-node shuffle; the combined
  // leader→aggregator payload is the same 800 bytes the flat path moves.
  EXPECT_EQ(h.stats.shuffle_intra_node(), 400u);
  EXPECT_EQ(h.stats.shuffle_inter_node(), 800u);
  // And the file is byte-identical to the flat result.
  std::string err;
  std::vector<Extent> all;
  for (int r = 0; r < 2; ++r) {
    for (int k = 0; k < 4; ++k) {
      all.push_back(Extent{static_cast<std::uint64_t>(k) * 400 +
                               static_cast<std::uint64_t>(r) * 200,
                           100});
    }
  }
  EXPECT_TRUE(workloads::verify_store(h.fs.store(h.fs.open("/x")), all, 3,
                                      &err))
      << err;
}

// The aggregator (rank 3) drains extent lists in the canonical (domain,
// source) order — rank 0 then rank 1 — and charges their receive only
// after the whole drain. The expected finish times were produced by a
// drain that received in arrival order, so they pin that the clock does
// not depend on which list arrives first.
TEST(Exchange, LateExtentListKeepsFinishTimes) {
  struct Case {
    int late_rank;  // enters the write 1 ms late
    std::vector<sim::SimTime> expected;
  };
  const Case cases[] = {
      // Rank 0's list arrives after rank 1's, against the drain order.
      {0,
       {0x1.31ebffe26d679p-6, 0x1.31ebffe26d679p-6, 0x1.31f031a05595p-6,
        0x1.31e7ce24853a2p-6}},
      // Arrival order matches the drain order; charging each list as it
      // is drained would absorb rank 0's receive overhead into the wait
      // for rank 1.
      {1,
       {0x1.31e39c669d0c9p-6, 0x1.31e39c669d0c9p-6, 0x1.31e7ce24853ap-6,
        0x1.31df6aa8b4df2p-6}},
  };
  for (const Case& c : cases) {
    ExchangeHarness h;
    const std::vector<sim::SimTime> finish = h.run_holey_write(
        /*sieving=*/true, /*hier=*/false, c.late_rank, /*delay=*/1e-3);
    std::ostringstream got;
    got << std::hexfloat;
    for (const sim::SimTime t : finish) got << t << ' ';
    EXPECT_EQ(finish, c.expected) << "late rank " << c.late_rank << ": "
                                  << got.str();
  }
}

// --- hierarchical round trips through the full driver stack ---

io::Hints hier_hints() {
  io::Hints h;
  h.cb_node_leaders = true;
  return h;
}

io::AccessPlan hier_ior_factory(int rank, int nprocs,
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

/// Every third rank contributes nothing — zero-data ranks must drop out
/// of the hierarchy without desynchronizing leader election.
io::AccessPlan hier_sparse_factory(int rank, int nprocs,
                                   std::vector<std::byte>& storage) {
  if (rank % 3 == 0) {
    storage.clear();
    return io::AccessPlan(util::ExtentList{}, Payload::of(storage));
  }
  return hier_ior_factory(rank, nprocs, storage);
}

TEST(HierRoundTrip, BothDriversDefaultTopology) {
  for (const bool mccio : {false, true}) {
    core::SimStack cluster(mcio::testing::mini_stack());
    io::TwoPhaseDriver two_phase;
    core::MccioDriver mc;
    io::CollectiveDriver& driver =
        mccio ? static_cast<io::CollectiveDriver&>(mc) : two_phase;
    ASSERT_NO_THROW(round_trip(cluster, driver, cluster.total_ranks(),
                               hier_ior_factory, /*seed=*/42,
                               hier_hints()));
  }
}

TEST(HierRoundTrip, OneRankPerNodeDegeneratesToFlat) {
  core::StackConfig opt = mcio::testing::mini_stack();
  opt.cluster.num_nodes = 4;
  opt.cluster.ranks_per_node = 1;
  core::SimStack cluster(opt);
  core::MccioDriver driver;
  ASSERT_NO_THROW(round_trip(cluster, driver, cluster.total_ranks(),
                             hier_ior_factory, /*seed=*/42, hier_hints()));
}

TEST(HierRoundTrip, SingleNodeCommunicator) {
  core::StackConfig opt = mcio::testing::mini_stack();
  opt.cluster.num_nodes = 1;
  opt.cluster.ranks_per_node = 4;
  core::SimStack cluster(opt);
  for (const bool mccio : {false, true}) {
    io::TwoPhaseDriver two_phase;
    core::MccioDriver mc;
    io::CollectiveDriver& driver =
        mccio ? static_cast<io::CollectiveDriver&>(mc) : two_phase;
    ASSERT_NO_THROW(round_trip(cluster, driver, cluster.total_ranks(),
                               hier_ior_factory, /*seed=*/42,
                               hier_hints()));
  }
}

TEST(HierRoundTrip, HeterogeneousNodeOccupancy) {
  // 3 nodes × 4 slots but only 9 ranks launched: nodes hold 4, 4 and 1
  // ranks — the last node's "group" is a single self-led rank.
  core::SimStack cluster(mcio::testing::mini_stack());
  core::MccioDriver driver;
  ASSERT_NO_THROW(round_trip(cluster, driver, /*nranks=*/9,
                             hier_ior_factory, /*seed=*/42, hier_hints()));
}

TEST(HierRoundTrip, ZeroDataRanksExcludedFromHierarchy) {
  core::SimStack cluster(mcio::testing::mini_stack());
  for (const bool mccio : {false, true}) {
    io::TwoPhaseDriver two_phase;
    core::MccioDriver mc;
    io::CollectiveDriver& driver =
        mccio ? static_cast<io::CollectiveDriver&>(mc) : two_phase;
    ASSERT_NO_THROW(round_trip(cluster, driver, cluster.total_ranks(),
                               hier_sparse_factory, /*seed=*/42,
                               hier_hints()));
  }
}

// Only TwoPhaseExchange::negotiate() sets a collective's group count:
// independent I/O forms no aggregation group (beside no aggregators),
// and the two-phase driver forms one.
TEST(CollectiveGroups, IndependentReportsNoneTwoPhaseOne) {
  workloads::IorConfig w;
  w.block_size = 64 << 10;
  w.transfer_size = 8 << 10;
  w.interleaved = true;
  for (const auto& [kind, groups] :
       {std::pair{core::DriverKind::kIndependent, 0},
        std::pair{core::DriverKind::kTwoPhase, 1}}) {
    core::SimStack stack(mcio::testing::mini_stack());
    const core::WriteReadResult r = core::run_write_read(
        stack, kind, {}, io::Hints{}, stack.total_ranks(),
        [&](int rank, int p) {
          return workloads::ior_plan(
              rank, p, w,
              Payload::virtual_bytes(workloads::ior_bytes_per_rank(w)));
        });
    EXPECT_EQ(r.write_stats.num_groups(), groups) << core::driver_name(kind);
    EXPECT_EQ(r.read_stats.num_groups(), groups) << core::driver_name(kind);
    EXPECT_EQ(r.write_stats.num_aggregators() > 0, groups > 0)
        << core::driver_name(kind);
  }
}

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define MCIO_TEST_UNDER_SANITIZER 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MCIO_TEST_UNDER_SANITIZER 1
#endif

// The host allocations of one small coll_perf run (a 3-D subarray view
// on 24 ranks, written and read back by each collective driver), counted
// by memtrack on this thread from before the stack is built. Every rank
// flattens its view, and the extent lists it exchanges are clipped,
// decoded, merged and audited, so a copy or re-coalesce added on that
// path shows up here as a count, whatever the host's speed.
TEST(ExtentPathBudget, CollPerfWriteRead) {
  core::StackConfig config = mcio::testing::mini_stack();
  config.cluster.num_nodes = 6;  // 24 ranks
  workloads::CollPerfConfig w;
  w.dims = {64, 64, 64};
  util::memtrack::reset();
  for (const core::DriverKind kind :
       {core::DriverKind::kTwoPhase, core::DriverKind::kMccio}) {
    core::SimStack stack(config);
    const core::WriteReadResult r = core::run_write_read(
        stack, kind, {}, io::Hints{}, stack.total_ranks(),
        [&](int rank, int p) {
          return workloads::collperf_plan(
              rank, p, w,
              util::Payload::virtual_bytes(
                  workloads::collperf_bytes_per_rank(rank, p, w)));
        });
    EXPECT_GT(r.write_bw, 0.0);
    EXPECT_GT(r.read_bw, 0.0);
  }
  // Measured with gcc 12: 5,891 allocations of 6.29 MB in all. An
  // exchange that copies and normalizes each rank's plan once per
  // collective read 5,987 and 6.82 MB (one list per rank and collective,
  // 96 here); kernels that clip run by run and re-normalize normalized
  // lists read 8,335 and 8.27 MB. The budgets leave about 5% for
  // standard-library differences, so the plan copy fails the byte budget.
  const std::uint64_t allocations = util::memtrack::allocations();
  EXPECT_LE(allocations, 6'200u);
#if !defined(MCIO_TEST_UNDER_SANITIZER)
  // Sanitizer allocators report other block sizes: the count only there.
  EXPECT_LE(util::memtrack::allocated_bytes(), 6'600'000u)
      << allocations << " allocations";
#endif
}

}  // namespace
}  // namespace mcio::io
