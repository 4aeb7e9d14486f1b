// The determinism matrix: figure-shaped sweeps and fuzz scenarios must
// produce byte-identical simulated results at every host thread count
// (--threads) and with the audit observer attached or detached —
// including the audit counter trail and the degradation-ladder counters
// under fault injection. It is the gate behind the figure benches' and
// the fuzz driver's --threads: nothing checks thread counts against each
// other at run time. The two fault sweeps are also pinned to fixed MB/s
// and ladder counters.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common.h"  // the bench harness (tests/CMakeLists adds bench/)
#include "fuzz/oracle.h"
#include "fuzz/scenario_gen.h"
#include "verify/auditor.h"
#include "verify/observer.h"
#include "workloads/collperf.h"
#include "workloads/ior.h"

namespace mcio {
namespace {

using util::kMiB;

bench::SweepSetup small_testbed() {
  bench::SweepSetup setup;
  setup.stack = bench::Testbed{.nodes = 4}.stack(/*mem_mean=*/0);
  setup.nranks = 16;
  return setup;
}

core::PlanFactory ior_factory() {
  return bench::ior_plans(
      {.block_size = 4ull << 20, .transfer_size = 256ull << 10});
}

core::PlanFactory collperf_factory() {
  return [](int rank, int p) {
    workloads::CollPerfConfig w;
    w.dims = {64, 64, 64};
    w.elem_size = 8;
    return workloads::collperf_plan(
        rank, p, w,
        util::Payload::virtual_bytes(
            workloads::collperf_bytes_per_rank(rank, p, w)));
  };
}

/// The sub-sweep keeping the matrix fast while still crossing the
/// memory-starved regime where schedules differ most.
std::vector<std::uint64_t> mini_sweep() {
  return {8 * kMiB, 4 * kMiB, 2 * kMiB};
}

/// Detaches the process-wide audit observer for one scope (the
/// `--no-audit` bench path) and restores it on exit.
class DetachedGlobalObserver {
 public:
  DetachedGlobalObserver() : saved_(verify::global_observer()) {
    verify::set_global_observer(nullptr);
  }
  ~DetachedGlobalObserver() { verify::set_global_observer(saved_); }

  DetachedGlobalObserver(const DetachedGlobalObserver&) = delete;
  DetachedGlobalObserver& operator=(const DetachedGlobalObserver&) = delete;

 private:
  verify::Observer* saved_;
};

/// One collective phase of a pinned sweep point: the simulated MB/s and
/// the full degradation-ladder counter set, in DegradationStats field
/// order (lease_denials, lease_retries, backoff_s, grant_delays,
/// grant_delay_s, revocations, buffer_shrinks, spills, spilled_bytes,
/// plan_remerges, exhausted_nodes, fallback_ranks, fallback_bytes,
/// lease_retry_giveups, borrows, borrowed_bytes, borrow_denials,
/// donor_revocations).
struct PinnedPhase {
  double mbs = 0.0;
  metrics::DegradationStats d;
};

struct PinnedPoint {
  PinnedPhase normal_write, normal_read, mccio_write, mccio_read;
};

/// Exact source form of a phase: hexfloat doubles round-trip bit for
/// bit, so comparing these strings compares the values exactly, and a
/// mismatch prints the literal to paste when a change moves the ladder
/// on purpose.
std::string literal(double mbs, const metrics::DegradationStats& d) {
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "{%a, {%llu, %llu, %a, %llu, %a, %llu, %llu, %llu, %llu, %llu, "
      "%llu, %llu, %llu, %llu, %llu, %llu, %llu, %llu}}",
      mbs, static_cast<unsigned long long>(d.lease_denials),
      static_cast<unsigned long long>(d.lease_retries), d.backoff_s,
      static_cast<unsigned long long>(d.grant_delays), d.grant_delay_s,
      static_cast<unsigned long long>(d.revocations),
      static_cast<unsigned long long>(d.buffer_shrinks),
      static_cast<unsigned long long>(d.spills),
      static_cast<unsigned long long>(d.spilled_bytes),
      static_cast<unsigned long long>(d.plan_remerges),
      static_cast<unsigned long long>(d.exhausted_nodes),
      static_cast<unsigned long long>(d.fallback_ranks),
      static_cast<unsigned long long>(d.fallback_bytes),
      static_cast<unsigned long long>(d.lease_retry_giveups),
      static_cast<unsigned long long>(d.borrows),
      static_cast<unsigned long long>(d.borrowed_bytes),
      static_cast<unsigned long long>(d.borrow_denials),
      static_cast<unsigned long long>(d.donor_revocations));
  return buf;
}

/// Run-to-run comparison cannot see a change that moves the ladder the
/// same way in every run; comparing against fixed values can. Re-pin only
/// for an intended behaviour change (a failure prints the new literal).
void expect_pinned(const std::vector<bench::SweepPoint>& got,
                   const std::vector<PinnedPoint>& want) {
  ASSERT_EQ(got.size(), want.size());
  const auto check = [](const char* what, double bw,
                        const metrics::CollectiveStats& stats,
                        const PinnedPhase& pin) {
    EXPECT_EQ(literal(bw / 1e6, stats.degradation()),
              literal(pin.mbs, pin.d))
        << what;
  };
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("mem=" + std::to_string(got[i].mem_bytes));
    const core::WriteReadResult& n = got[i].normal;
    const core::WriteReadResult& m = got[i].mccio;
    check("two-phase write", n.write_bw, n.write_stats, want[i].normal_write);
    check("two-phase read", n.read_bw, n.read_stats, want[i].normal_read);
    check("mccio write", m.write_bw, m.write_stats, want[i].mccio_write);
    check("mccio read", m.read_bw, m.read_stats, want[i].mccio_read);
  }
}

/// FaultLadderSweep's golden: per memory point, two-phase write/read
/// then MCCIO write/read.
std::vector<PinnedPoint> fault_ladder_pins() {
  return {
      {{0x1.836b5622bbf98p+6,
        {1, 1, 0x1.0624dd2f1a9fcp-10, 0, 0x0p+0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
         0, 0, 0, 0}},
       {0x1.647e875040b51p+5,
        {0, 0, 0x0p+0, 0, 0x0p+0, 1, 0, 0, 25165824, 0, 0, 0, 0, 0, 0, 0, 0,
         0}},
       {0x1.2ce57b245f347p+7,
        {2, 2, 0x1.0624dd2f1a9fcp-9, 0, 0x0p+0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
         0, 0, 0, 0}},
       {0x1.e5e503151495cp+5,
        {1, 1, 0x1.0624dd2f1a9fcp-10, 0, 0x0p+0, 1, 0, 0, 18874368, 0, 0,
         0, 0, 0, 0, 0, 0, 0}}},
      {{0x1.fcee4b551f0a7p+5,
        {1, 1, 0x1.0624dd2f1a9fcp-10, 0, 0x0p+0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
         0, 0, 0, 0}},
       {0x1.2667dc177182cp+5,
        {0, 0, 0x0p+0, 0, 0x0p+0, 1, 0, 0, 29360128, 0, 0, 0, 0, 0, 0, 0, 0,
         0}},
       {0x1.63daf68c3376p+6,
        {2, 2, 0x1.0624dd2f1a9fcp-9, 0, 0x0p+0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
         0, 0, 0, 0}},
       {0x1.7cc833e92502p+5,
        {1, 1, 0x1.0624dd2f1a9fcp-10, 0, 0x0p+0, 1, 0, 0, 22020096, 0, 0,
         0, 0, 0, 0, 0, 0, 0}}},
      {{0x1.382426267c92bp+5,
        {1, 1, 0x1.0624dd2f1a9fcp-10, 0, 0x0p+0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
         0, 0, 0, 0}},
       {0x1.e18b2be4ae951p+4,
        {0, 0, 0x0p+0, 0, 0x0p+0, 1, 0, 0, 31457280, 0, 0, 0, 0, 0, 0, 0, 0,
         0}},
       {0x1.8c6f13ba6e007p+5,
        {1, 1, 0x1.0624dd2f1a9fcp-10, 0, 0x0p+0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
         0, 0, 0, 0}},
       {0x1.2e66f4267a3d4p+5,
        {0, 0, 0x0p+0, 0, 0x0p+0, 1, 0, 0, 25165824, 0, 0, 0, 0, 0, 0, 0,
         0, 0}}}};
}

/// BorrowAndHierarchyFaultSweep's golden, same layout.
std::vector<PinnedPoint> borrow_hierarchy_pins() {
  return {
      {{0x1.643fc8292b408p+6,
        {21, 17, 0x1.f3b645a1cac09p-5, 0, 0x0p+0, 0, 3, 0, 0, 0, 0, 0, 0, 0,
         1, 33554432, 0, 0}},
       {0x1.9aaa18e8b861fp+6,
        {20, 16, 0x1.eb851eb851eb9p-5, 0, 0x0p+0, 0, 3, 0, 0, 0, 0, 0, 0, 0,
         1, 33554432, 0, 0}},
       {0x1.ef27a8b62f76ep+6,
        {1, 1, 0x1.0624dd2f1a9fcp-10, 0, 0x0p+0, 0, 0, 0, 0, 0, 1, 0, 0, 0,
         0, 0, 0, 0}},
       {0x1.9a9816e32d14dp+7,
        {0, 0, 0x0p+0, 0, 0x0p+0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0}}},
      {{0x1.bbc7072dfc382p+5,
        {16, 13, 0x1.78d4fdf3b645bp-5, 0, 0x0p+0, 0, 2, 0, 0, 0, 0, 0, 0, 0,
         1, 33554432, 0, 0}},
       {0x1.2de06ffee058dp+6,
        {15, 12, 0x1.70a3d70a3d70bp-5, 0, 0x0p+0, 0, 2, 0, 0, 0, 0, 0, 0, 0,
         1, 33554432, 0, 0}},
       {0x1.19c1c15aef8a7p+6,
        {1, 1, 0x1.0624dd2f1a9fcp-10, 0, 0x0p+0, 0, 0, 0, 0, 0, 1, 0, 0, 0,
         0, 0, 0, 0}},
       {0x1.d595ec6fa045p+6,
        {0, 0, 0x0p+0, 0, 0x0p+0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0}}},
      {{0x1.290a9fa8ba387p+5,
        {11, 9, 0x1.fbe76c8b43959p-6, 0, 0x0p+0, 0, 1, 1, 33554432, 0, 0, 0,
         0, 0, 0, 0, 1, 0}},
       {0x1.06464e5bdc3c4p+5,
        {10, 8, 0x1.eb851eb851eb9p-6, 0, 0x0p+0, 0, 1, 1, 33554432, 0, 0, 0,
         0, 0, 0, 0, 1, 0}},
       {0x1.064f8237e2df6p+5,
        {1, 1, 0x1.0624dd2f1a9fcp-10, 0, 0x0p+0, 0, 0, 0, 0, 0, 1, 0, 0, 0,
         0, 0, 0, 0}},
       {0x1.67fa53c384c38p+5,
        {0, 0, 0x0p+0, 0, 0x0p+0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0}}}};
}

/// CHECK-fails unless two sweeps produced identical simulated results:
/// bandwidths bit-exact, aggregation and message counters equal. Host
/// meters are exempt — wall clock legitimately varies.
void check_sweep_equal(const std::vector<bench::SweepPoint>& a,
                       const std::vector<bench::SweepPoint>& b) {
  MCIO_CHECK_EQ(a.size(), b.size());
  const auto check_stats = [](const metrics::CollectiveStats& x,
                              const metrics::CollectiveStats& y) {
    MCIO_CHECK_EQ(x.num_aggregators(), y.num_aggregators());
    MCIO_CHECK_EQ(x.num_groups(), y.num_groups());
    MCIO_CHECK_EQ(x.msgs_intra_node(), y.msgs_intra_node());
    MCIO_CHECK_EQ(x.msgs_inter_node(), y.msgs_inter_node());
    MCIO_CHECK_EQ(x.bytes_inter_node(), y.bytes_inter_node());
    MCIO_CHECK_EQ(x.shuffle_intra_node(), y.shuffle_intra_node());
    MCIO_CHECK_EQ(x.shuffle_inter_node(), y.shuffle_inter_node());
    MCIO_CHECK_EQ(x.rmw_bytes(), y.rmw_bytes());
    MCIO_CHECK_EQ(x.io_bytes(), y.io_bytes());
    // Degradation-ladder trail (nonzero only under fault plans): the
    // ladder's grant/deny/borrow decisions must replay identically too.
    MCIO_CHECK(x.degradation() == y.degradation());
  };
  const auto check_run = [&](const core::WriteReadResult& x,
                             const core::WriteReadResult& y) {
    MCIO_CHECK_EQ(x.write_bw, y.write_bw);
    MCIO_CHECK_EQ(x.read_bw, y.read_bw);
    check_stats(x.write_stats, y.write_stats);
    check_stats(x.read_stats, y.read_stats);
  };
  for (std::size_t i = 0; i < a.size(); ++i) {
    MCIO_CHECK_EQ(a[i].mem_bytes, b[i].mem_bytes);
    check_run(a[i].normal, b[i].normal);
    check_run(a[i].mccio, b[i].mccio);
  }
}

/// The global audit census `run` adds: the global Auditor's counters
/// after it, minus those before.
verify::AuditCounters census_of(const std::function<void()>& run) {
  using C = verify::AuditCounters;
  const C before = verify::global_auditor().counters();
  run();
  C added = verify::global_auditor().counters();
  for (std::uint64_t C::*field :
       {&C::runs, &C::slices, &C::messages, &C::unexpected, &C::waits,
        &C::lease_grants, &C::lease_releases, &C::pfs_writes,
        &C::pfs_reads, &C::pfs_bytes_written, &C::pfs_bytes_read,
        &C::collectives, &C::findings}) {
    added.*field -= before.*field;
  }
  return added;
}

/// Runs the sweep once as the golden and checks every other axis against
/// it; a non-empty `pinned` also checks the golden against fixed values.
void expect_matrix_identical(const bench::SweepSetup& base,
                             const core::PlanFactory& plan,
                             const std::vector<PinnedPoint>& pinned = {}) {
  ASSERT_TRUE(verify::global_audit_active());
  const auto golden =
      bench::run_memory_sweep(1, mini_sweep(), base, plan);
  if (!pinned.empty()) expect_pinned(golden, pinned);
  // Host-thread axis: cells computed concurrently.
  for (const int threads : {2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    check_sweep_equal(
        golden, bench::run_memory_sweep(threads, mini_sweep(), base, plan));
  }
  // Audit axis: observers are passive, so detaching the auditor cannot
  // move a single simulated number.
  const DetachedGlobalObserver no_audit;
  for (const int threads : {1, 2}) {
    SCOPED_TRACE("no audit, threads=" + std::to_string(threads));
    check_sweep_equal(
        golden, bench::run_memory_sweep(threads, mini_sweep(), base, plan));
  }
}

TEST(DeterminismMatrix, Fig7ShapedIorSweep) {
  expect_matrix_identical(small_testbed(), ior_factory());
}

TEST(DeterminismMatrix, Fig8ShapedHierarchicalIorSweep) {
  bench::SweepSetup base = small_testbed();
  base.hints.cb_node_leaders = true;  // fig8 --hier code path
  expect_matrix_identical(base, ior_factory());
}

TEST(DeterminismMatrix, Fig6ShapedCollPerfSweep) {
  expect_matrix_identical(small_testbed(), collperf_factory());
}

TEST(DeterminismMatrix, FaultLadderSweep) {
  // Degradation-ladder paths (denial/retry/revocation/shrink/spill) must
  // replay identically (check_sweep_equal compares the full degradation
  // counter set) and match the pinned outcome.
  bench::SweepSetup base = small_testbed();
  base.stack.faults = node::FaultConfig{
      .denial_rate = 0.2, .revoke_rate = 0.1, .delay_rate = 0.1};
  expect_matrix_identical(base, ior_factory(), fault_ladder_pins());
}

TEST(DeterminismMatrix, BorrowAndHierarchyFaultSweep) {
  // Far-memory borrow migration crossed with node-leader hierarchy and
  // node exhaustion — the rungs most sensitive to event ordering.
  bench::SweepSetup base = small_testbed();
  base.hints.cb_node_leaders = true;
  base.hints.borrow_far_memory = true;
  base.stack.faults =
      node::FaultConfig{.denial_rate = 0.15, .exhaust_rate = 0.25};
  expect_matrix_identical(base, ior_factory(), borrow_hierarchy_pins());
}

TEST(DeterminismMatrix, SweepAuditCensusIndependentOfThreads) {
  // Every experiment audits through its own Auditor and folds the
  // counters into the global totals, so the census a sweep adds cannot
  // depend on how its cells were scheduled.
  ASSERT_TRUE(verify::global_audit_active());
  const bench::SweepSetup base = small_testbed();
  const auto sweep = [&](int threads) {
    return census_of([&] {
      bench::run_memory_sweep(threads, mini_sweep(), base, ior_factory());
    });
  };
  const verify::AuditCounters one = sweep(1);
  EXPECT_EQ(one.runs, 2 * mini_sweep().size());
  EXPECT_GT(one.messages, 0u);
  EXPECT_EQ(one.findings, 0u);
  for (const int threads : {2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_TRUE(sweep(threads) == one);
  }
}

TEST(DeterminismMatrix, EngagedZeroRateFaultsRunTheNegotiatedProtocol) {
  // An engaged FaultConfig attaches a fault plan even when no rate can
  // fire, so the run negotiates buffers before moving data; a disengaged
  // one stays on the fault-free path. The negotiation's messages tell
  // the two apart.
  ASSERT_TRUE(verify::global_audit_active());
  const core::StackConfig plain =
      bench::Testbed{.nodes = 4}.stack(4 * kMiB);
  core::StackConfig zero = plain;
  zero.faults = node::FaultConfig{};
  ASSERT_FALSE(zero.faults->any());
  for (const core::DriverKind kind :
       {core::DriverKind::kTwoPhase, core::DriverKind::kMccio}) {
    SCOPED_TRACE(core::driver_name(kind));
    const auto messages = [&](const core::StackConfig& config) {
      core::SimStack stack(config);
      core::run_write_read(stack, kind, {}, bench::hints_at(4 * kMiB), 16,
                           ior_factory());
      return stack.auditor()->counters().messages;
    };
    EXPECT_NE(messages(zero), messages(plain));
  }
}

TEST(DeterminismMatrix, FuzzOracleIdenticalAcrossRuns) {
  const fuzz::ScenarioGen gen(2026);
  for (std::uint64_t i = 0; i < 6; ++i) {
    const fuzz::Scenario s = gen.generate(i);
    const fuzz::DiffResult first = fuzz::run_differential(s);
    const fuzz::DiffResult second = fuzz::run_differential(s);
    EXPECT_EQ(second.classify(), first.classify()) << "case " << i;
    for (int d = 0; d < 3; ++d) {
      SCOPED_TRACE("case " + std::to_string(i) + " driver " +
                   std::to_string(d));
      const fuzz::RunOutcome& a = first.runs[d];
      const fuzz::RunOutcome& b = second.runs[d];
      EXPECT_EQ(b.completed, a.completed);
      EXPECT_EQ(b.file_hash, a.file_hash);
      EXPECT_EQ(b.read_hash, a.read_hash);
      EXPECT_EQ(b.pattern_ok, a.pattern_ok);
      ASSERT_EQ(b.findings.size(), a.findings.size());
      for (std::size_t f = 0; f < a.findings.size(); ++f) {
        EXPECT_EQ(b.findings[f].kind, a.findings[f].kind);
        EXPECT_EQ(b.findings[f].message, a.findings[f].message);
      }
      // The audit trail — every delivered message, wait, lease and PFS
      // access — must match event-for-event, not just the bytes.
      EXPECT_TRUE(b.counters == a.counters);
    }
  }
}

}  // namespace
}  // namespace mcio
