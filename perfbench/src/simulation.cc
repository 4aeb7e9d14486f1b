#include "simulation.h"

#include <cmath>
#include <exception>
#include <optional>
#include <sstream>

#include "core/mccio_driver.h"
#include "io/mpi_file.h"
#include "io/two_phase_driver.h"
#include "mpi/comm.h"
#include "mpi/machine.h"
#include "node/memory.h"
#include "pfs/pfs.h"
#include "util/bytes.h"

namespace perfbench {

namespace mio = mcio::io;

const char* driver_label(DriverKind kind) {
  return kind == DriverKind::kTwoPhase ? "twophase" : "mccio";
}

namespace {

/// The simulation stack of one run, observed by `observer` when non-null
/// (otherwise every component keeps the global Auditor).
struct Stack {
  mcio::node::FaultPlan fault_plan;
  mcio::mpi::Machine machine;
  mcio::pfs::Pfs fs;
  mcio::node::MemoryManager memory;
  mio::Hints hints;

  Stack(const Workload& w, int trial, std::uint64_t level,
        mcio::verify::Observer* observer)
      : fault_plan(w.nodes, faults_of(w, trial, level)),
        machine(testbed_cluster(w.nodes)),
        fs(machine.cluster(), testbed_pfs()),
        memory(machine.config(), level,
               mcio::node::MemoryVariance{w.mem_stdev, 1ull << 20},
               w.cell_seed(trial, level)),
        hints(w.hints) {
    if (w.faults.any()) memory.set_fault_plan(&fault_plan);
    if (observer != nullptr) {
      machine.set_observer(observer);
      fs.set_observer(observer);
      memory.set_observer(observer);
    }
    hints.cb_buffer_size = level;  // the baseline's fixed buffer
  }

  static mcio::node::FaultConfig faults_of(const Workload& w, int trial,
                                           std::uint64_t level) {
    mcio::node::FaultConfig f = w.faults;
    f.seed = w.cell_seed(trial, level);
    return f;
  }
};

mcio::verify::AuditCounters audit_now() {
  return mcio::verify::global_auditor().counters();
}

mcio::verify::AuditCounters audit_delta(
    const mcio::verify::AuditCounters& a,
    const mcio::verify::AuditCounters& b) {
  mcio::verify::AuditCounters d;
  d.slices = b.slices - a.slices;
  d.messages = b.messages - a.messages;
  d.unexpected = b.unexpected - a.unexpected;
  d.waits = b.waits - a.waits;
  d.lease_grants = b.lease_grants - a.lease_grants;
  d.lease_releases = b.lease_releases - a.lease_releases;
  d.pfs_writes = b.pfs_writes - a.pfs_writes;
  d.pfs_reads = b.pfs_reads - a.pfs_reads;
  d.pfs_bytes_written = b.pfs_bytes_written - a.pfs_bytes_written;
  d.pfs_bytes_read = b.pfs_bytes_read - a.pfs_bytes_read;
  d.collectives = b.collectives - a.collectives;
  d.findings = b.findings - a.findings;
  return d;
}

/// The checks of one operation; returns the failure text or "".
std::string check_op(const OpResult& op, bool is_write,
                     std::uint64_t planned, bool audited) {
  std::ostringstream why;
  if (!std::isfinite(op.bandwidth) || op.bandwidth <= 0.0) {
    why << "bandwidth " << op.bandwidth << " B/s; ";
  }
  if (audited) {
    const std::uint64_t moved =
        is_write ? op.audit.pfs_bytes_written : op.audit.pfs_bytes_read;
    if (moved != planned) {
      why << "PFS " << (is_write ? "wrote " : "read ") << moved
          << " bytes, planned " << planned << "; ";
    }
    if (op.audit.findings != 0) {
      why << op.audit.findings << " audit finding(s); ";
    }
  }
  return why.str();
}

}  // namespace

SimResult run_simulation(const Workload& w, DriverKind kind, int trial,
                         std::uint64_t level, const Observation& obs) {
  SimResult res;
  const double sim_start = host_now();
  Stack stack(w, trial, level, obs.tracer);
  mio::TwoPhaseDriver two_phase;
  mcio::core::MccioDriver mccio;
  mio::CollectiveDriver* driver = &two_phase;
  if (kind == DriverKind::kMccio) driver = &mccio;
  std::optional<DriverTap> tap;
  if (obs.tracer != nullptr) {
    tap.emplace(*driver, *obs.tracer, w.ranks,
                std::string(driver_label(kind)) + " " +
                    mcio::util::format_bytes(level) + " trial " +
                    std::to_string(trial),
                obs.parent_span);
    driver = &*tap;
  }

  const mcio::verify::AuditCounters before = audit_now();
  mcio::verify::AuditCounters mid;
  bool setup_done = false;
  double all_bytes = 0.0;
  try {
    const double run_start = host_now();
    const std::vector<double> finish =
        stack.machine.run(w.ranks, [&](mcio::mpi::Rank& rank) {
          mcio::mpi::Comm& world = rank.world();
          const double g0 = host_now();
          const mio::AccessPlan plan = w.make_plan(rank.rank());
          res.gen_host_s += host_now() - g0;
          res.extents += plan.extents.size();
          const double my_bytes = static_cast<double>(plan.total_bytes());
          const double total = world.allreduce_sum(my_bytes);

          mio::MPIFile file(
              rank, world,
              mio::MPIFile::Services{&stack.fs, &stack.memory},
              "/perfbench", /*create=*/true, stack.hints, driver);
          file.set_stats(&res.write.stats);
          world.barrier();
          const double t0 = world.allreduce_max(rank.actor().now());
          if (!setup_done) {
            setup_done = true;
            res.setup_s = host_now() - sim_start;
          }
          file.write_all_plan(plan);
          world.barrier();
          const double t1 = world.allreduce_max(rank.actor().now());

          // Evict server-side locality between the phases, as the
          // paper flushes caches after writing.
          if (rank.rank() == 0) {
            stack.fs.flush_locality();
            mid = audit_now();
          }
          world.barrier();
          file.set_stats(&res.read.stats);
          const double t2 = world.allreduce_max(rank.actor().now());
          file.read_all_plan(plan);
          world.barrier();
          const double t3 = world.allreduce_max(rank.actor().now());
          if (rank.rank() == 0) {
            all_bytes = total;
            res.write.sim_s = t1 - t0;
            res.read.sim_s = t3 - t2;
            res.write.bandwidth = total / (t1 - t0);
            res.read.bandwidth = total / (t3 - t2);
            res.write.stats.set_elapsed(t1 - t0);
            res.read.stats.set_elapsed(t3 - t2);
          }
        });
    res.run_host_s = host_now() - run_start;
    for (const double t : finish) res.virtual_s = std::max(res.virtual_s, t);
  } catch (const std::exception& e) {
    res.write.failure = res.read.failure =
        std::string("run threw: ") + e.what();
    return res;
  }
  const mcio::verify::AuditCounters after = audit_now();
  res.write.audit = audit_delta(before, mid);
  res.read.audit = audit_delta(mid, after);
  res.planned_bytes = static_cast<std::uint64_t>(all_bytes);
  res.write.failure =
      check_op(res.write, true, res.planned_bytes, obs.audited);
  res.read.failure = check_op(res.read, false, res.planned_bytes, obs.audited);
  return res;
}

double run_plan_only(const Workload& w, DriverKind kind, std::uint64_t level,
                     Tracer& tracer) {
  Stack stack(w, 0, level, &tracer);
  const mcio::core::MccioDriver mccio;
  int entered = 0;
  double first = 0.0;
  double last = 0.0;
  stack.machine.run(w.ranks, [&](mcio::mpi::Rank& rank) {
    const mio::AccessPlan plan = w.make_plan(rank.rank());
    mio::MPIFile file(rank, rank.world(),
                      mio::MPIFile::Services{&stack.fs, &stack.memory},
                      "/perfbench", /*create=*/true, stack.hints);
    mio::CollContext ctx;
    ctx.rank = &rank;
    ctx.comm = &rank.world();
    ctx.fs = &stack.fs;
    ctx.file = file.handle();
    ctx.memory = &stack.memory;
    ctx.hints = stack.hints;
    rank.world().barrier();
    if (entered++ == 0) first = host_now();
    if (kind == DriverKind::kTwoPhase) {
      (void)mio::TwoPhaseDriver::build_plan(ctx, plan);
    } else {
      (void)mccio.build_plan(ctx, plan);
    }
    last = host_now();
  });
  Span s;
  s.name = std::string("plan ") + driver_label(kind);
  s.start_s = first;
  s.end_s = last;
  tracer.add_span(std::move(s));
  return last - first;
}

namespace {

bool same_stats(const mcio::metrics::CollectiveStats& x,
                const mcio::metrics::CollectiveStats& y) {
  const mcio::metrics::DegradationStats& dx = x.degradation();
  const mcio::metrics::DegradationStats& dy = y.degradation();
  const auto same_aggs = [&] {
    if (x.aggregators().size() != y.aggregators().size()) return false;
    for (std::size_t i = 0; i < x.aggregators().size(); ++i) {
      const mcio::metrics::AggregatorRecord& a = x.aggregators()[i];
      const mcio::metrics::AggregatorRecord& b = y.aggregators()[i];
      if (a.rank != b.rank || a.node != b.node ||
          a.buffer_bytes != b.buffer_bytes || a.pressure != b.pressure ||
          a.bytes_received != b.bytes_received ||
          a.bytes_sent != b.bytes_sent || a.io_bytes != b.io_bytes ||
          a.rounds != b.rounds) {
        return false;
      }
    }
    return true;
  };
  return same_aggs() && x.num_groups() == y.num_groups() &&
         x.elapsed() == y.elapsed() &&
         x.shuffle_intra_node() == y.shuffle_intra_node() &&
         x.shuffle_inter_node() == y.shuffle_inter_node() &&
         x.msgs_intra_node() == y.msgs_intra_node() &&
         x.msgs_inter_node() == y.msgs_inter_node() &&
         x.bytes_inter_node() == y.bytes_inter_node() &&
         x.rmw_bytes() == y.rmw_bytes() && x.io_bytes() == y.io_bytes() &&
         dx.lease_denials == dy.lease_denials &&
         dx.lease_retries == dy.lease_retries &&
         dx.backoff_s == dy.backoff_s && dx.grant_delays == dy.grant_delays &&
         dx.grant_delay_s == dy.grant_delay_s &&
         dx.revocations == dy.revocations &&
         dx.buffer_shrinks == dy.buffer_shrinks && dx.spills == dy.spills &&
         dx.spilled_bytes == dy.spilled_bytes &&
         dx.plan_remerges == dy.plan_remerges &&
         dx.exhausted_nodes == dy.exhausted_nodes &&
         dx.fallback_ranks == dy.fallback_ranks &&
         dx.fallback_bytes == dy.fallback_bytes &&
         dx.lease_retry_giveups == dy.lease_retry_giveups &&
         dx.borrows == dy.borrows && dx.borrowed_bytes == dy.borrowed_bytes &&
         dx.borrow_denials == dy.borrow_denials &&
         dx.donor_revocations == dy.donor_revocations;
}

}  // namespace

bool same_simulated(const SimResult& a, const SimResult& b) {
  return a.write.bandwidth == b.write.bandwidth &&
         a.read.bandwidth == b.read.bandwidth &&
         a.write.sim_s == b.write.sim_s && a.read.sim_s == b.read.sim_s &&
         a.virtual_s == b.virtual_s && a.planned_bytes == b.planned_bytes &&
         a.extents == b.extents && same_stats(a.write.stats, b.write.stats) &&
         same_stats(a.read.stats, b.read.stats);
}

}  // namespace perfbench
