// One collective experiment, the loop of the paper's evaluation (§4): a
// collective write, a cache flush, then a collective read, each timed by
// the slowest rank. The figure and ablation benches, the differential
// fuzz oracle and the tests build their simulated world as one SimStack
// and run this one loop over it (or, for write-only and per-rank bodies,
// drive the stack's Machine themselves).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/config.h"
#include "core/drivers.h"
#include "io/hints.h"
#include "io/mpi_file.h"
#include "io/plan.h"
#include "metrics/collective_stats.h"
#include "mpi/machine.h"
#include "node/fault.h"
#include "node/memory.h"
#include "pfs/pfs.h"
#include "verify/auditor.h"

namespace mcio::core {

/// How a SimStack audits its simulation.
enum class Audit {
  /// A private Auditor iff the global audit is active (benches detach it
  /// with --no-audit); a run that ends with findings throws.
  kEnforcing,
  /// Always a private Auditor that keeps findings for inspection instead
  /// of throwing.
  kDeferred,
};

/// Everything one SimStack is built from.
struct StackConfig {
  sim::ClusterConfig cluster;
  pfs::PfsConfig pfs;
  /// Mean available aggregation memory per node.
  std::uint64_t mem_mean = 16ull << 20;
  node::MemoryVariance mem_variance;
  /// Fixed per comparison, so every driver sees the same draws.
  std::uint64_t mem_seed = 20120512;
  /// Memory-pressure fault injection: engaged, a FaultPlan is attached to
  /// the MemoryManager, so runs take the degraded protocol (buffer
  /// negotiation before data movement) even at all-zero rates.
  /// Disengaged, runs stay on the fault-free code path.
  std::optional<node::FaultConfig> faults;
  Audit audit = Audit::kEnforcing;
};

/// One owned simulated world: a Machine, a Pfs and a MemoryManager (with
/// its FaultPlan when the config engages one), observed by the stack's
/// private Auditor when it audits. Each stack audits on its own, so
/// stacks may run concurrently on different host threads; the Auditor's
/// counters fold into the global totals when the stack is destroyed.
class SimStack {
 public:
  explicit SimStack(const StackConfig& config);

  SimStack(const SimStack&) = delete;
  SimStack& operator=(const SimStack&) = delete;

  mpi::Machine& machine() { return machine_; }
  pfs::Pfs& fs() { return fs_; }
  node::MemoryManager& memory() { return memory_; }
  io::MPIFile::Services services() { return {&fs_, &memory_}; }
  int total_ranks() const { return machine_.config().total_ranks(); }

  /// The private Auditor, or null when the stack runs unaudited.
  verify::Auditor* auditor() {
    return audit_.auditor ? &*audit_.auditor : nullptr;
  }

 private:
  /// Declared first, so it outlives the components: Machine, Pfs and
  /// MemoryManager notify their observer from their destructors, and the
  /// counters are folded only after the last notification.
  struct PrivateAudit {
    std::optional<verify::Auditor> auditor;
    ~PrivateAudit();
  };

  PrivateAudit audit_;
  mpi::Machine machine_;
  pfs::Pfs fs_;
  std::optional<node::FaultPlan> fault_plan_;
  node::MemoryManager memory_;
};

/// Builds one rank's access plan.
using PlanFactory = std::function<io::AccessPlan(int rank, int nranks)>;

struct WriteReadResult {
  /// All ranks' bytes over the slowest rank's phase time, in bytes/s.
  double write_bw = 0.0;
  double read_bw = 0.0;
  metrics::CollectiveStats write_stats;
  metrics::CollectiveStats read_stats;
  pfs::FileHandle file = -1;
  /// Each rank's virtual finish time, as Machine::run returns them.
  std::vector<sim::SimTime> finish_times;
};

/// Runs the experiment loop on `nranks` ranks of `stack` through the
/// driver `kind` selects: each rank builds its plan with `write_plan`,
/// then a timed collective write, flush_locality, and a timed collective
/// read of the same plan. A `read_plan` factory, when given, builds the
/// read's plan instead (separate storage for real read-back). Findings
/// stay on the stack's Auditor, which also holds them when the run
/// throws.
WriteReadResult run_write_read(SimStack& stack, DriverKind kind,
                               const MccioConfig& mccio,
                               const io::Hints& hints, int nranks,
                               const PlanFactory& write_plan,
                               const PlanFactory& read_plan = nullptr);

}  // namespace mcio::core
