// One simulation of a workload: a fresh Machine/Pfs/MemoryManager stack,
// one driver at one memory level, a collective write then a collective
// read of the workload's pattern. Also the plan-only simulations of the
// traced run, which call a driver's build_plan and nothing else.
#pragma once

#include <cstdint>
#include <string>

#include "metrics/collective_stats.h"
#include "tracer.h"
#include "verify/auditor.h"
#include "workload.h"

namespace perfbench {

enum class DriverKind { kTwoPhase, kMccio };

const char* driver_label(DriverKind kind);

/// One collective write or read.
struct OpResult {
  double bandwidth = 0.0;  ///< planned bytes / virtual seconds
  double sim_s = 0.0;      ///< virtual seconds, slowest rank
  mcio::metrics::CollectiveStats stats;
  /// Global Auditor counter deltas over the operation (zero when the
  /// run is not audited).
  mcio::verify::AuditCounters audit;
  /// Empty when the operation passed every check; otherwise why not.
  std::string failure;
};

struct SimResult {
  OpResult write;
  OpResult read;
  std::uint64_t planned_bytes = 0;
  double setup_s = 0.0;       ///< host: construction to first collective
  double run_host_s = 0.0;    ///< host: inside Machine::run
  double gen_host_s = 0.0;    ///< host: inside workloads::*_plan
  std::uint64_t extents = 0;  ///< extents of all generated plans
  double virtual_s = 0.0;     ///< simulated seconds of the whole run
};

/// How a simulation is observed.
struct Observation {
  /// Null for an untraced run (components keep the global Auditor).
  Tracer* tracer = nullptr;
  /// With a tracer: parent span of this simulation's spans.
  int parent_span = -1;
  /// Check PFS byte counts and findings against the global Auditor's
  /// counters (false when the auditor is not attached).
  bool audited = true;
};

/// Runs `driver` at memory `level` of trial `trial`. A failed check or an
/// exception thrown by the run (an auditor finding in enforcing mode, a
/// deadlock) is reported in the operations' `failure`, never thrown.
SimResult run_simulation(const Workload& w, DriverKind driver, int trial,
                         std::uint64_t level, const Observation& obs);

/// Host seconds of a plan-only simulation at trial 0 and `level`: every
/// rank builds its access plan, opens the file, and calls `driver`'s
/// build_plan; the time runs from the first rank's call to the last
/// rank's return, so set-up is excluded. Records a span under `tracer`.
double run_plan_only(const Workload& w, DriverKind driver,
                     std::uint64_t level, Tracer& tracer);

/// True when every simulated output of two runs matches bit for bit:
/// bandwidths, virtual times, collective statistics and the
/// degradation-ladder trail.
bool same_simulated(const SimResult& a, const SimResult& b);

}  // namespace perfbench
