// Ablation: memory-pressure fault injection. Sweeps the lease-denial
// rate of a node::FaultPlan over a figure-shaped IOR run and reports how
// both collective strategies degrade: bandwidth should fall monotonically
// as denial rises (the plan's stateless draws make each rate's fault set
// a superset of every lower rate's), and the ladder counters show *how*
// each run survived — retries, buffer shrinks, spills, revocations and
// independent-I/O fallbacks.
//
// `--revoke`, `--delay` and `--exhaust` add the other fault classes at a
// fixed rate across every point; `--serial` switches the IOR layout from
// interleaved to segmented; `--borrow` arms the far-memory borrow rung
// (hints.borrow_far_memory) on both drivers.
#include "common.h"
#include "util/cli.h"

using namespace mcio;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  bench::Testbed tb;
  tb.nodes = static_cast<int>(cli.get_int("nodes", 10));
  const int nranks = static_cast<int>(
      cli.get_int("ranks", tb.nodes * tb.ranks_per_node));
  const std::uint64_t mem = cli.get_bytes("mem", 16ull << 20);
  const double stdev = cli.get_double("mem-stdev", 0.5);
  const double revoke = cli.get_double("revoke", 0.0);
  const double delay = cli.get_double("delay", 0.0);
  const double exhaust = cli.get_double("exhaust", 0.0);
  const bool serial = cli.has("serial");
  const bool borrow = cli.has("borrow");
  const double single = cli.get_double("denial", -1.0);
  // First-rung retry backoff. The sweep's default is deliberately larger
  // than the library default: a denial must cost more than the ±1-2 %
  // discrete-event scheduling jitter, or the low-rate end of the table is
  // noise instead of a trend.
  const double backoff = cli.get_double("backoff", 20e-3);
  bench::JsonReporter rep(cli, "ablation_faults");
  bench::configure_audit(cli);
  cli.check_unused();

  const core::PlanFactory plans =
      bench::ior_plans({.interleaved = !serial});

  std::vector<double> rates = {0.0, 0.02, 0.05, 0.1, 0.2, 0.5};
  if (single >= 0.0) rates = {single};

  util::Table table({"denial", "normal wr MB/s", "mccio wr MB/s",
                     "normal rd MB/s", "mccio rd MB/s", "denials",
                     "retries", "shrinks", "spills", "fallbacks"});
  for (const double rate : rates) {
    core::StackConfig config = tb.stack(mem, stdev);
    // Engaged at every rate, so the zero-rate point runs the same
    // negotiated protocol as the rest.
    config.faults = node::FaultConfig{.denial_rate = rate,
                                      .revoke_rate = revoke,
                                      .delay_rate = delay,
                                      .exhaust_rate = exhaust};
    io::Hints hints = bench::hints_at(mem);
    hints.fault_backoff_s = backoff;
    hints.borrow_far_memory = borrow;
    const auto run = [&](core::DriverKind kind) {
      core::SimStack stack(config);
      return core::run_write_read(stack, kind, {}, hints, nranks,
                                  plans);
    };
    const auto normal = run(core::DriverKind::kTwoPhase);
    const auto mccio = run(core::DriverKind::kMccio);

    // The mccio write-phase ladder counters, aggregated for the table;
    // the JSON point carries all four phase/driver combinations.
    const metrics::DegradationStats& d = mccio.write_stats.degradation();
    auto& point = rep.add_point("denial=" + util::fixed(rate, 2))
                      .set("denial_rate", rate)
                      .set("revoke_rate", revoke)
                      .set("delay_rate", delay)
                      .set("exhaust_rate", exhaust)
                      .set("borrow", borrow ? 1 : 0)
                      .set("normal_write_mbs", normal.write_bw / 1e6)
                      .set("mccio_write_mbs", mccio.write_bw / 1e6)
                      .set("normal_read_mbs", normal.read_bw / 1e6)
                      .set("mccio_read_mbs", mccio.read_bw / 1e6);
    bench::set_fault_counters(point, "normal_write_", normal.write_stats);
    bench::set_fault_counters(point, "normal_read_", normal.read_stats);
    bench::set_fault_counters(point, "mccio_write_", mccio.write_stats);
    bench::set_fault_counters(point, "mccio_read_", mccio.read_stats);
    table.add(util::fixed(rate, 2), util::fixed(normal.write_bw / 1e6),
              util::fixed(mccio.write_bw / 1e6),
              util::fixed(normal.read_bw / 1e6),
              util::fixed(mccio.read_bw / 1e6), d.lease_denials,
              d.lease_retries, d.buffer_shrinks, d.spills,
              d.fallback_ranks);
  }
  std::cout << "# Ablation — lease-denial faults (IOR, " << nranks
            << " processes, " << util::format_bytes(mem)
            << " mean memory per node, "
            << (serial ? "serial" : "interleaved") << ")\n";
  table.print(std::cout);
  rep.write();
  return 0;
}
