// Figure 6: coll_perf (ROMIO) write/read bandwidth vs per-aggregator
// memory at 120 cores. The benchmark writes and reads a 3-D
// block-distributed array in row-major order through subarray file views.
//
// Paper reference: 2048³ array (32 GB) over 120 processes; MCCIO average
// gain +34.2 % write / +22.9 % read. The default array here is 1024³
// (8 GiB) to keep the flattened-extent memory of the simulation modest;
// pass --dim=2048 for the paper's full size.
#include "common.h"
#include "util/cli.h"

using namespace mcio;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const bench::SweepSetup setup = bench::figure_options(cli, 10);
  const auto dim =
      static_cast<std::uint64_t>(cli.get_int("dim", 1024));
  const auto threads = static_cast<int>(cli.get_int("threads", 1));
  bench::JsonReporter rep(cli, "fig6_collperf");
  bench::configure_audit(cli);
  cli.check_unused();

  workloads::CollPerfConfig w;
  w.dims = {dim, dim, dim};
  w.elem_size = 8;

  const auto plan_for = [&](int rank, int p) {
    return workloads::collperf_plan(
        rank, p, w,
        util::Payload::virtual_bytes(
            workloads::collperf_bytes_per_rank(rank, p, w)));
  };

  const auto points = bench::run_memory_sweep(
      threads, bench::paper_memory_sweep(), setup, plan_for);
  bench::report_memory_sweep(
      "Figure 6 — coll_perf, " + std::to_string(setup.nranks) +
          " processes, " + std::to_string(dim) + "^3 doubles (" +
          util::format_bytes(workloads::collperf_total_bytes(w)) + " file)",
      points, {"+34.2%", "+22.9%"}, rep);
  rep.write();
  return 0;
}
