// Ablation: aggregators per node (N_ah) — the many-core knob. Sweeps
// N_ah at two memory levels; more aggregator slots help only while each
// still gets a useful share of the node's memory.
#include "common.h"
#include "util/cli.h"

using namespace mcio;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  bench::Testbed tb;
  tb.nodes = static_cast<int>(cli.get_int("nodes", 10));
  const int nranks = static_cast<int>(
      cli.get_int("ranks", tb.nodes * tb.ranks_per_node));
  bench::JsonReporter rep(cli, "ablation_nah");
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

  util::Table table({"N_ah", "mem/node", "write MB/s", "read MB/s",
                     "aggregators"});
  for (const std::uint64_t mem :
       {std::uint64_t{128} << 20, std::uint64_t{8} << 20}) {
    for (int nah = 1; nah <= 4; ++nah) {
      core::MccioConfig mccio;
      mccio.n_ah = nah;
      // Let N_ah actually fan out: allow extra slots whenever each still
      // gets at least Msg_ind/4.
      mccio.msg_ind = 32ull << 20;
      core::SimStack stack(tb.stack(mem));
      const auto r = core::run_write_read(stack, core::DriverKind::kMccio,
                                          mccio, bench::hints_at(mem),
                                          nranks, make_plan);
      rep.add_point("nah=" + std::to_string(nah) + " " +
                    util::format_bytes(mem))
          .set("n_ah", nah)
          .set("mem_bytes", mem)
          .set("write_mbs", r.write_bw / 1e6)
          .set("read_mbs", r.read_bw / 1e6)
          .set("aggregators", r.write_stats.num_aggregators());
      table.add(nah, util::format_bytes(mem),
                util::fixed(r.write_bw / 1e6),
                util::fixed(r.read_bw / 1e6),
                r.write_stats.num_aggregators());
    }
  }
  std::cout << "# Ablation — aggregators per node (N_ah), IOR "
            << nranks << " processes\n";
  table.print(std::cout);
  rep.write();
  return 0;
}
