// Figure 7: IOR interleaved write/read bandwidth vs per-aggregator memory
// at 120 cores (10 nodes × 12), 32 MB of I/O data per MPI process,
// normal two-phase vs memory-conscious collective I/O.
//
// Paper reference: write improvements 40.3 %–121.7 % (avg 81.2 %), read
// 64.6 %–97.4 % (avg 82.4 %), best write gain at 16 MB.
#include "common.h"
#include "util/cli.h"

using namespace mcio;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const bench::SweepSetup setup = bench::figure_options(cli, 10);
  workloads::IorConfig w;
  w.block_size = cli.get_bytes("block", w.block_size);
  w.transfer_size = cli.get_bytes("transfer", w.transfer_size);
  const auto threads = static_cast<int>(cli.get_int("threads", 1));
  bench::JsonReporter rep(cli, "fig7_ior120");
  bench::configure_audit(cli);
  cli.check_unused();

  const auto points = bench::run_memory_sweep(
      threads, bench::paper_memory_sweep(), setup, bench::ior_plans(w));
  bench::report_memory_sweep(
      "Figure 7 — IOR, " + std::to_string(setup.nranks) + " processes, " +
          util::format_bytes(w.block_size) + " per process, interleaved",
      points, {"+81.2%", "+82.4%"}, rep);
  rep.write();
  return 0;
}
