// Figure 8: IOR interleaved write/read bandwidth vs per-aggregator memory
// at 1080 cores (90 nodes × 12), 32 MB of I/O data per MPI process.
//
// Paper anchors (normal two-phase): write 1631.91 → 396.36 MB/s and read
// 2047.05 → 861.62 MB/s as the aggregation memory shrinks from 128 MB to
// 2 MB; MCCIO average improvement +24.3 % write / +57.8 % read.
//
// --threads=N runs the sweep's independent (memory × driver) cells on N
// host threads; --json records the sweep's wall clock either way.
#include <algorithm>
#include <sstream>

#include "common.h"
#include "util/cli.h"

using namespace mcio;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const bench::SweepSetup setup = bench::figure_options(cli, 90);
  workloads::IorConfig w;
  w.block_size = cli.get_bytes("block", w.block_size);
  w.transfer_size = cli.get_bytes("transfer", w.transfer_size);
  const auto threads = static_cast<int>(cli.get_int("threads", 1));
  bench::JsonReporter rep(cli, "fig8_ior1080");
  bench::configure_audit(cli);
  cli.check_unused();

  const auto points = bench::run_memory_sweep(
      threads, bench::paper_memory_sweep(), setup, bench::ior_plans(w));

  // The baseline's bandwidth range across the sweep, beside the paper's.
  const auto range = [&](double core::WriteReadResult::*bw) {
    const auto [lo, hi] = std::minmax_element(
        points.begin(), points.end(),
        [&](const bench::SweepPoint& a, const bench::SweepPoint& b) {
          return a.normal.*bw < b.normal.*bw;
        });
    return util::fixed(hi->normal.*bw / 1e6) + " -> " +
           util::fixed(lo->normal.*bw / 1e6);
  };
  std::ostringstream notes;
  notes << "normal write range: " << range(&core::WriteReadResult::write_bw)
        << " MB/s   (paper: 1631.91 -> 396.36)\n";
  notes << "normal read range:  " << range(&core::WriteReadResult::read_bw)
        << " MB/s   (paper: 2047.05 -> 861.62)\n";

  bench::report_memory_sweep(
      "Figure 8 — IOR, " + std::to_string(setup.nranks) + " processes, " +
          util::format_bytes(w.block_size) + " per process, interleaved",
      points, {"+24.3%", "+57.8%"}, rep, notes.str());
  rep.write();
  return 0;
}
