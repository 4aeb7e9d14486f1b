// Ablation: sensitivity to memory-availability variance. The paper sets
// the normal distribution's stdev to "50" (we read: 50 % of the mean);
// this sweep shows how both strategies respond as the variance grows —
// the baseline's fixed placement suffers, MCCIO exploits the spread.
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
  bench::JsonReporter rep(cli, "ablation_variance");
  bench::configure_audit(cli);
  cli.check_unused();

  workloads::IorConfig w;
  w.block_size = 32ull << 20;
  w.transfer_size = 1ull << 20;
  w.segments = 1;
  w.interleaved = true;
  const auto make_plan = [&](int rank, int p) {
    return workloads::ior_plan(
        rank, p, w,
        util::Payload::virtual_bytes(workloads::ior_bytes_per_rank(w)));
  };

  util::Table table({"rel stdev", "normal wr MB/s", "mccio wr MB/s",
                     "wr gain", "normal rd MB/s", "mccio rd MB/s",
                     "rd gain"});
  for (const double stdev : {0.0, 0.1, 0.25, 0.5, 0.75, 1.0}) {
    const auto run = [&](core::DriverKind kind) {
      core::SimStack stack(tb.stack(mem, stdev));
      return core::run_write_read(stack, kind, {}, bench::hints_at(mem),
                                  nranks, make_plan);
    };
    const auto normal = run(core::DriverKind::kTwoPhase);
    const auto mccio = run(core::DriverKind::kMccio);
    rep.add_point("stdev=" + util::fixed(stdev, 2))
        .set("rel_stdev", stdev)
        .set("normal_write_mbs", normal.write_bw / 1e6)
        .set("mccio_write_mbs", mccio.write_bw / 1e6)
        .set("normal_read_mbs", normal.read_bw / 1e6)
        .set("mccio_read_mbs", mccio.read_bw / 1e6);
    table.add(util::fixed(stdev, 2), util::fixed(normal.write_bw / 1e6),
              util::fixed(mccio.write_bw / 1e6),
              util::percent(mccio.write_bw / normal.write_bw - 1.0),
              util::fixed(normal.read_bw / 1e6),
              util::fixed(mccio.read_bw / 1e6),
              util::percent(mccio.read_bw / normal.read_bw - 1.0));
  }
  std::cout << "# Ablation — memory-availability variance (IOR, " << nranks
            << " processes, " << util::format_bytes(mem)
            << " mean memory per node)\n";
  table.print(std::cout);
  rep.write();
  return 0;
}
