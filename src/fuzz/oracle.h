// The differential byte oracle.
//
// One scenario runs through three independent drivers — MCCIO, classic
// two-phase, and plan-time independent I/O — each on its own freshly
// built core::SimStack (identical configuration, so the stacks are
// clones of one another) and through core::run_write_read, the same
// timed write / flush / read loop the benches run, here over real bytes
// read back into separate storage. The oracle itself only lowers the
// scenario to a stack config, hints and plans, hashes the results and
// gives the verdict. It asserts:
//
//   1. Byte-identical file contents across all three drivers
//      (Pfs::content_hash over the written file).
//   2. Byte-identical read-back: each rank re-reads its plan collectively
//      and the per-rank buffers hash identically across drivers.
//   3. The absolute pattern check: file bytes equal the deterministic
//      workloads::pattern over every planned extent (catches a bug shared
//      by all three drivers).
//   4. Zero verify::Auditor findings. Exception: "byte-duplicate" is
//      tolerated when the scenario plans the same byte from two ranks —
//      "written exactly once" is not well-defined for overlapping plans
//      (the independent baseline writes overlaps twice by design).
//
// Any thrown util::Error (deadlock, invariant failure) is captured as a
// failure of that driver's run rather than aborting the fuzz loop.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/drivers.h"
#include "fuzz/scenario.h"
#include "verify/auditor.h"

namespace mcio::fuzz {

/// Outcome of one scenario under one driver.
struct RunOutcome {
  bool completed = false;
  std::string error;  ///< exception text when !completed
  std::uint64_t file_hash = 0;
  std::uint64_t read_hash = 0;
  bool pattern_ok = false;
  std::string pattern_error;
  /// Auditor findings attributed to this run (already filtered of
  /// tolerated overlap duplicates; see header comment).
  std::vector<verify::Finding> findings;
  /// Tolerated byte-duplicate findings (overlap scenarios only).
  std::uint64_t tolerated_duplicates = 0;
  /// This run's private-auditor totals — every event the run produced.
  /// The determinism tests compare these between repeated runs (the
  /// audit trail must be identical, not just the bytes).
  verify::AuditCounters counters;
};

struct DiffResult {
  Scenario scenario;
  RunOutcome runs[3];  ///< indexed by core::DriverKind

  const RunOutcome& run(core::DriverKind kind) const {
    return runs[static_cast<int>(kind)];
  }

  bool ok() const;
  /// Multi-line human-readable failure description (empty when ok).
  std::string describe() const;
  /// Short one-line classification ("file-hash-mismatch", "findings:...",
  /// "exception:...", "pattern-mismatch", "ok") — the minimizer's notion
  /// of "the same failure still reproduces" is simply !ok().
  std::string classify() const;
};

/// Runs the scenario under one driver on a fresh core::SimStack.
/// Reentrant: each run audits through the stack's own deferred Auditor
/// (folding monotone counters into the global totals), so concurrent
/// calls from a case-parallel fuzz loop are safe.
RunOutcome run_scenario(const Scenario& scenario, core::DriverKind kind);

/// Runs all three drivers and compares.
DiffResult run_differential(const Scenario& scenario);

}  // namespace mcio::fuzz
