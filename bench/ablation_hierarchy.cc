// Ablation: node-leader hierarchy (hints.cb_node_leaders) vs the flat
// exchange as a function of node width. Total process count is held
// fixed while ranks-per-node sweeps 1..12, so the workload is identical
// and only the topology changes: at one rank per node the hierarchy
// degenerates to the flat path (every rank is its own leader), and each
// doubling of node width gives the intra-node combine more traffic to
// take off the interconnect. Run at low aggregation memory, where the
// per-window message storm is worst.
#include "common.h"
#include "util/cli.h"

using namespace mcio;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const int nranks = static_cast<int>(cli.get_int("ranks", 120));
  const std::uint64_t mem = cli.get_bytes("mem", 4ull << 20);
  workloads::IorConfig w;
  w.block_size = cli.get_bytes("block", 32ull << 20);
  w.transfer_size = cli.get_bytes("transfer", 1ull << 20);
  w.segments = 1;
  w.interleaved = true;
  bench::JsonReporter rep(cli, "ablation_hierarchy");
  bench::configure_audit(cli);
  cli.check_unused();

  const auto make_plan = [&](int rank, int p) {
    return workloads::ior_plan(
        rank, p, w,
        util::Payload::virtual_bytes(workloads::ior_bytes_per_rank(w)));
  };

  util::Table table({"ranks/node", "driver", "flat wr MB/s", "hier wr MB/s",
                     "flat rd MB/s", "hier rd MB/s", "inter msgs flat",
                     "inter msgs hier", "msg ratio"});
  for (const int rpn : {1, 2, 4, 6, 12}) {
    if (nranks % rpn != 0) continue;
    bench::Testbed tb;
    tb.ranks_per_node = rpn;
    tb.nodes = nranks / rpn;
    for (const auto kind :
         {core::DriverKind::kTwoPhase, core::DriverKind::kMccio}) {
      io::Hints hints = bench::hints_at(mem);
      const auto run = [&] {
        core::SimStack stack(tb.stack(mem));
        return core::run_write_read(stack, kind, {}, hints, nranks,
                                    make_plan);
      };
      const auto flat = run();
      hints.cb_node_leaders = true;
      const auto hier = run();

      const std::uint64_t flat_msgs = flat.write_stats.msgs_inter_node() +
                                      flat.read_stats.msgs_inter_node();
      const std::uint64_t hier_msgs = hier.write_stats.msgs_inter_node() +
                                      hier.read_stats.msgs_inter_node();
      util::Json& point =
          rep.add_point(std::string(core::driver_name(kind)) + "/rpn" +
                        std::to_string(rpn))
              .set("ranks_per_node", rpn)
              .set("nodes", tb.nodes)
              .set("driver", core::driver_name(kind))
              .set("mem_bytes", mem)
              .set("flat_write_mbs", flat.write_bw / 1e6)
              .set("hier_write_mbs", hier.write_bw / 1e6)
              .set("flat_read_mbs", flat.read_bw / 1e6)
              .set("hier_read_mbs", hier.read_bw / 1e6);
      bench::set_message_counters(point, "flat_write_", flat.write_stats);
      bench::set_message_counters(point, "flat_read_", flat.read_stats);
      bench::set_message_counters(point, "hier_write_", hier.write_stats);
      bench::set_message_counters(point, "hier_read_", hier.read_stats);
      table.add(rpn, core::driver_name(kind),
                util::fixed(flat.write_bw / 1e6),
                util::fixed(hier.write_bw / 1e6),
                util::fixed(flat.read_bw / 1e6),
                util::fixed(hier.read_bw / 1e6), flat_msgs, hier_msgs,
                util::fixed(hier_msgs > 0
                                ? static_cast<double>(flat_msgs) /
                                      static_cast<double>(hier_msgs)
                                : 0.0));
    }
  }
  std::cout << "# Ablation — node-leader hierarchy vs flat exchange (IOR "
               "interleaved, "
            << nranks << " processes, " << util::format_bytes(mem)
            << " aggregation memory)\n";
  table.print(std::cout);
  rep.write();
  return 0;
}
