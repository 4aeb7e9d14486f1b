// The determinism matrix: figure-shaped sweeps and fuzz scenarios must
// produce byte-identical simulated results at every host thread count
// (--threads) and with the audit observer attached or detached —
// including the audit counter trail and the degradation-ladder counters
// under fault injection.
#include <gtest/gtest.h>

#include <cstdint>
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

bench::RunOptions small_testbed() {
  bench::RunOptions base;
  base.testbed.nodes = 4;
  base.nranks = 16;
  return base;
}

bench::BenchPlanFactory ior_factory() {
  return [](int rank, int p) {
    workloads::IorConfig w;
    w.block_size = 4ull << 20;
    w.transfer_size = 256ull << 10;
    w.segments = 1;
    w.interleaved = true;
    return workloads::ior_plan(
        rank, p, w,
        util::Payload::virtual_bytes(workloads::ior_bytes_per_rank(w)));
  };
}

bench::BenchPlanFactory collperf_factory() {
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

void expect_matrix_identical(const bench::RunOptions& base,
                             const bench::BenchPlanFactory& plan) {
  ASSERT_TRUE(verify::global_audit_active());
  const auto golden =
      bench::run_memory_sweep(1, mini_sweep(), base, plan);
  // Host-thread axis: cells computed concurrently.
  for (const int threads : {2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    bench::check_sweep_equal(
        golden, bench::run_memory_sweep(threads, mini_sweep(), base, plan));
  }
  // Audit axis: observers are passive, so detaching the auditor cannot
  // move a single simulated number.
  const DetachedGlobalObserver no_audit;
  for (const int threads : {1, 2}) {
    SCOPED_TRACE("no audit, threads=" + std::to_string(threads));
    bench::check_sweep_equal(
        golden, bench::run_memory_sweep(threads, mini_sweep(), base, plan));
  }
}

TEST(DeterminismMatrix, Fig7ShapedIorSweep) {
  expect_matrix_identical(small_testbed(), ior_factory());
}

TEST(DeterminismMatrix, Fig8ShapedHierarchicalIorSweep) {
  bench::RunOptions base = small_testbed();
  base.hints.cb_node_leaders = true;  // fig8 --hier code path
  expect_matrix_identical(base, ior_factory());
}

TEST(DeterminismMatrix, Fig6ShapedCollPerfSweep) {
  expect_matrix_identical(small_testbed(), collperf_factory());
}

TEST(DeterminismMatrix, FaultLadderSweep) {
  // Degradation-ladder paths (denial/retry/revocation/shrink/spill) must
  // replay identically; check_sweep_equal pins the full degradation
  // counter set.
  bench::RunOptions base = small_testbed();
  base.faults.denial_rate = 0.2;
  base.faults.revoke_rate = 0.1;
  base.faults.delay_rate = 0.1;
  base.attach_fault_plan = true;
  expect_matrix_identical(base, ior_factory());
}

TEST(DeterminismMatrix, BorrowAndHierarchyFaultSweep) {
  // Far-memory borrow migration crossed with node-leader hierarchy and
  // node exhaustion — the rungs most sensitive to event ordering.
  bench::RunOptions base = small_testbed();
  base.hints.cb_node_leaders = true;
  base.hints.borrow_far_memory = true;
  base.faults.denial_rate = 0.15;
  base.faults.exhaust_rate = 0.25;
  base.attach_fault_plan = true;
  expect_matrix_identical(base, ior_factory());
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
