#include "core/experiment.h"

#include "mpi/comm.h"

namespace mcio::core {

SimStack::PrivateAudit::~PrivateAudit() {
  if (auditor) verify::global_auditor().absorb_counters(auditor->counters());
}

SimStack::SimStack(const StackConfig& config)
    : machine_(config.cluster),
      fs_(machine_.cluster(), config.pfs),
      memory_(config.cluster, config.mem_mean, config.mem_variance,
              config.mem_seed) {
  if (config.faults) {
    fault_plan_.emplace(config.cluster.num_nodes, *config.faults);
    memory_.set_fault_plan(&*fault_plan_);
  }
  if (config.audit == Audit::kDeferred || verify::global_audit_active()) {
    verify::Auditor& a = audit_.auditor.emplace();
    a.set_deferred(config.audit == Audit::kDeferred);
    machine_.set_observer(&a);
    fs_.set_observer(&a);
    memory_.set_observer(&a);
  }
}

WriteReadResult run_write_read(SimStack& stack, DriverKind kind,
                               const MccioConfig& mccio,
                               const io::Hints& hints, int nranks,
                               const PlanFactory& write_plan,
                               const PlanFactory& read_plan) {
  Drivers drivers(mccio);
  io::CollectiveDriver* const driver = &drivers.get(kind);
  WriteReadResult result;

  result.finish_times = stack.machine().run(nranks, [&](mpi::Rank& rank) {
    mpi::Comm& world = rank.world();
    const io::AccessPlan plan = write_plan(rank.rank(), nranks);
    const double all_bytes =
        world.allreduce_sum(static_cast<double>(plan.total_bytes()));

    io::MPIFile file(rank, world, stack.services(), "/experiment",
                     /*create=*/true, hints, driver);
    if (rank.rank() == 0) result.file = file.handle();
    file.set_stats(&result.write_stats);

    world.barrier();
    const double t0 = world.allreduce_max(rank.actor().now());
    file.write_all_plan(plan);
    world.barrier();
    const double t1 = world.allreduce_max(rank.actor().now());

    // The paper evicts cached data with memory flushing after the write
    // phase; drop server-side locality state the same way.
    if (rank.rank() == 0) stack.fs().flush_locality();
    world.barrier();

    file.set_stats(&result.read_stats);
    const double t2 = world.allreduce_max(rank.actor().now());
    if (read_plan) {
      file.read_all_plan(read_plan(rank.rank(), nranks));
    } else {
      file.read_all_plan(plan);
    }
    world.barrier();
    const double t3 = world.allreduce_max(rank.actor().now());

    if (rank.rank() == 0) {
      result.write_bw = all_bytes / (t1 - t0);
      result.read_bw = all_bytes / (t3 - t2);
      result.write_stats.set_elapsed(t1 - t0);
      result.read_stats.set_elapsed(t3 - t2);
    }
  });
  return result;
}

}  // namespace mcio::core
