// Ablation: why collective I/O at all? Compares independent I/O (every
// process issues its own noncontiguous requests), two-phase collective
// I/O and MCCIO on the same interleaved workload — the paper's §1
// motivation that many small noncontiguous requests crater a parallel
// file system.
#include "common.h"
#include "util/cli.h"

using namespace mcio;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  bench::Testbed tb;
  tb.nodes = static_cast<int>(cli.get_int("nodes", 10));
  const int nranks = static_cast<int>(
      cli.get_int("ranks", tb.nodes * tb.ranks_per_node));
  // Small noncontiguous transfers: merging them into stripe-sized
  // contiguous requests is the whole point of collective I/O (§1).
  const std::uint64_t block = cli.get_bytes("block", 4ull << 20);
  const std::uint64_t transfer = cli.get_bytes("transfer", 64ull << 10);
  bench::JsonReporter rep(cli, "ablation_collective");
  bench::configure_audit(cli);
  cli.check_unused();

  workloads::IorConfig w;
  w.block_size = block;
  w.transfer_size = transfer;
  w.segments = 1;
  w.interleaved = true;
  const auto make_plan = [&](int rank, int p) {
    return workloads::ior_plan(
        rank, p, w,
        util::Payload::virtual_bytes(workloads::ior_bytes_per_rank(w)));
  };

  util::Table table({"strategy", "write MB/s", "read MB/s"});
  for (const auto kind :
       {core::DriverKind::kIndependent, core::DriverKind::kTwoPhase,
        core::DriverKind::kMccio}) {
    core::SimStack stack(tb.stack(16ull << 20));
    const auto r = core::run_write_read(stack, kind, {},
                                        bench::hints_at(16ull << 20),
                                        nranks, make_plan);
    rep.add_point(core::driver_name(kind))
        .set("write_mbs", r.write_bw / 1e6)
        .set("read_mbs", r.read_bw / 1e6);
    table.add(core::driver_name(kind), util::fixed(r.write_bw / 1e6),
              util::fixed(r.read_bw / 1e6));
  }
  std::cout << "# Ablation — independent vs collective strategies (IOR "
               "interleaved, "
            << nranks << " processes, " << util::format_bytes(block)
            << " per process)\n";
  table.print(std::cout);
  rep.write();
  return 0;
}
