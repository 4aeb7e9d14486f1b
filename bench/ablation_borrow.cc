// Ablation: the far-memory borrow rung. Crosses lease-revocation rates
// with memory levels over a figure-shaped IOR run (node exhaustion and a
// small denial rate fixed across every point) and compares three answers
// to the paper's core question — what to do when aggregation memory runs
// out:
//
//   remerge      MCCIO's default ladder (plan remerge, retry, shrink,
//                spill to swap; borrow off)
//   borrow       the same ladder with hints.borrow_far_memory: bottomed
//                ladders lease a full-size window on a donor node and
//                run it over the fabric channel instead of spilling;
//                revoked windows migrate to the next donor and spilled
//                rounds probe for promotion back onto the fabric
//   independent  give up on aggregation entirely (the plan-time last
//                resort, measured as a whole run)
//
// The default run shape deliberately leaves donor headroom: 48 ranks on
// a 10-node testbed pack the data onto nodes 0-3 and leave six idle
// nodes whose untouched memory is the disaggregated donor pool. During
// a collective every aggregating node's memory is fully budgeted by its
// own slot plan, so only idle nodes can host a window-sized lease —
// exactly the far-memory shape the rung models.
//
// The borrow win region is the revocation band where a revoked local
// window would otherwise crawl at swap speed for the rest of the run
// (collective time is the max over aggregators, so one demoted domain
// sets the whole run's bandwidth) while a fabric-backed window just
// migrates to the next donor. The DegradationStats counters in the JSON
// show the rungs each run actually took. `--hier` composes the
// node-leader hierarchy on both collective runs.
#include "common.h"
#include "util/cli.h"

using namespace mcio;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  bench::Testbed tb;
  tb.nodes = static_cast<int>(cli.get_int("nodes", 10));
  // 4 data nodes + 6 idle donors by default (12 ranks per node).
  const int nranks = static_cast<int>(cli.get_int("ranks", 48));
  const double stdev = cli.get_double("mem-stdev", 0.5);
  const double exhaust = cli.get_double("exhaust", 0.3);
  const double denial = cli.get_double("denial", 0.05);
  const bool hier = cli.has("hier");
  const double single_revoke = cli.get_double("revoke", -1.0);
  const std::uint64_t single_mem = cli.get_bytes("mem", 0);
  // Same deliberate backoff as ablation_faults: a denial must cost more
  // than discrete-event scheduling jitter to read as a trend.
  const double backoff = cli.get_double("backoff", 20e-3);

  workloads::IorConfig w;
  w.block_size = cli.get_bytes("block", w.block_size);
  // Sub-stripe transfers: each rank's interleaved chunks share stripes
  // with its neighbours, so independent I/O pays read-modify-write and
  // seeks while the collective runs assemble full stripes — the regime
  // where aggregation (and therefore the borrow rung) has value.
  w.transfer_size = cli.get_bytes("transfer", 256ull << 10);

  bench::JsonReporter rep(cli, "ablation_borrow");
  bench::configure_audit(cli);
  cli.check_unused();
  const core::PlanFactory plans = bench::ior_plans(w);

  std::vector<double> revokes = {0.0, 0.5, 0.7, 1.0};
  if (single_revoke >= 0.0) revokes = {single_revoke};
  std::vector<std::uint64_t> mems = {16ull << 20, 4ull << 20};
  if (single_mem > 0) mems = {single_mem};

  util::Table table({"mem", "revoke", "remerge wr MB/s", "borrow wr MB/s",
                     "indep wr MB/s", "borrows", "donor revs",
                     "borrow denials", "spills (remerge)", "spills (borrow)",
                     "fallbacks"});
  for (const std::uint64_t mem : mems) {
    for (const double rate : revokes) {
      core::StackConfig config = tb.stack(mem, stdev);
      // Engaged at every rate, so the zero-rate point runs the same
      // negotiated protocol as the rest.
      config.faults = node::FaultConfig{.denial_rate = denial,
                                        .revoke_rate = rate,
                                        .exhaust_rate = exhaust};
      const auto run = [&](core::DriverKind kind, const io::Hints& hints) {
        core::SimStack stack(config);
        return core::run_write_read(stack, kind, {}, hints, nranks,
                                    plans);
      };
      io::Hints hints = bench::hints_at(mem);
      hints.fault_backoff_s = backoff;
      hints.cb_node_leaders = hier;
      const auto remerge = run(core::DriverKind::kMccio, hints);

      io::Hints bo = hints;
      bo.borrow_far_memory = true;
      const auto borrow = run(core::DriverKind::kMccio, bo);

      io::Hints ind = hints;
      ind.cb_node_leaders = false;
      const auto indep = run(core::DriverKind::kIndependent, ind);

      const metrics::DegradationStats& dr =
          remerge.write_stats.degradation();
      const metrics::DegradationStats& db =
          borrow.write_stats.degradation();
      auto& point =
          rep.add_point("mem=" + util::format_bytes(mem) +
                        " revoke=" + util::fixed(rate, 2))
              .set("mem_bytes", mem)
              .set("denial_rate", denial)
              .set("exhaust_rate", exhaust)
              .set("revoke_rate", rate)
              .set("hier", hier ? 1 : 0)
              .set("remerge_write_mbs", remerge.write_bw / 1e6)
              .set("borrow_write_mbs", borrow.write_bw / 1e6)
              .set("indep_write_mbs", indep.write_bw / 1e6)
              .set("remerge_read_mbs", remerge.read_bw / 1e6)
              .set("borrow_read_mbs", borrow.read_bw / 1e6)
              .set("indep_read_mbs", indep.read_bw / 1e6);
      bench::set_fault_counters(point, "remerge_write_",
                                remerge.write_stats);
      bench::set_fault_counters(point, "remerge_read_", remerge.read_stats);
      bench::set_fault_counters(point, "borrow_write_", borrow.write_stats);
      bench::set_fault_counters(point, "borrow_read_", borrow.read_stats);
      table.add(util::format_bytes(mem), util::fixed(rate, 2),
                util::fixed(remerge.write_bw / 1e6),
                util::fixed(borrow.write_bw / 1e6),
                util::fixed(indep.write_bw / 1e6), db.borrows,
                db.donor_revocations, db.borrow_denials, dr.spills,
                db.spills, db.fallback_ranks);
    }
  }
  std::cout << "# Ablation — far-memory borrow rung (IOR, " << nranks
            << " processes on " << tb.nodes
            << " nodes, exhaust=" << util::fixed(exhaust, 2)
            << ", denial=" << util::fixed(denial, 2)
            << (hier ? ", hier" : "") << ")\n";
  table.print(std::cout);
  rep.write();
  return 0;
}
