// Ablations on the paper's §4 evaluation shape: IOR interleaved, 120
// processes on the 10-node × 12-core testbed. Five sweeps, each varying
// one knob and printing one table:
//   components  each §3 component of MCCIO (aggregation group division,
//               workload-portion remerging, memory-aware aggregator
//               location) disabled in turn, beside the full strategy,
//               the two-phase baseline and independent I/O;
//   variance    the memory-availability stdev. The paper sets it to "50"
//               (we read: 50 % of the mean); the baseline's fixed
//               placement suffers as it grows, MCCIO exploits the spread;
//   N_ah        aggregators per node at two memory levels: extra slots
//               help only while each still gets a useful share of memory;
//   strategy    independent vs two-phase vs MCCIO on small noncontiguous
//               transfers, the paper's §1 motivation: merging them into
//               stripe-sized contiguous requests is what collective I/O
//               is for;
//   hierarchy   node-leader aggregation (hints.cb_node_leaders) vs the
//               flat exchange as ranks per node sweep 1..12 at a fixed
//               process count, so only the topology changes. At one rank
//               per node the hierarchy degenerates to the flat path; each
//               doubling of node width gives the intra-node combine more
//               traffic to take off the interconnect. Run at low
//               aggregation memory, where the per-window message storm is
//               worst.
// `--json` writes one document whose points each name their "sweep".
#include "common.h"
#include "util/cli.h"

using namespace mcio;

namespace {

using util::kKiB;
using util::kMiB;

/// Every core of the 10 × 12 testbed.
constexpr int kRanks = 120;

/// One write/read experiment on `kRanks` processes.
core::WriteReadResult run(const core::StackConfig& config,
                          core::DriverKind kind,
                          const core::MccioConfig& mccio,
                          const io::Hints& hints,
                          const core::PlanFactory& plans) {
  core::SimStack stack(config);
  return core::run_write_read(stack, kind, mccio, hints, kRanks, plans);
}

/// Records one point of `sweep` for --json.
util::Json& add_point(bench::JsonReporter& rep, const char* sweep,
                      std::string label) {
  return rep.add_point(std::move(label)).set("sweep", sweep);
}

void components(const bench::Testbed& tb, bench::JsonReporter& rep) {
  const std::uint64_t mem = 16 * kMiB;
  const core::PlanFactory plans = bench::ior_plans({});
  struct Variant {
    const char* name;
    core::DriverKind kind;
    bool groups;
    bool remerge;
    bool memory;
  };
  const Variant variants[] = {
      {"independent", core::DriverKind::kIndependent, false, false, false},
      {"two-phase baseline", core::DriverKind::kTwoPhase, false, false,
       false},
      {"mccio (full)", core::DriverKind::kMccio, true, true, true},
      {"mccio, no group division", core::DriverKind::kMccio, false, true,
       true},
      {"mccio, no remerging", core::DriverKind::kMccio, true, false,
       true},
      {"mccio, memory-blind", core::DriverKind::kMccio, true, true,
       false},
  };

  util::Table table({"variant", "write MB/s", "read MB/s", "aggregators",
                     "groups", "buffer stdev"});
  for (const Variant& v : variants) {
    core::MccioConfig mccio;
    mccio.group_division = v.groups;
    mccio.remerging = v.remerge;
    mccio.memory_aware = v.memory;
    const auto r =
        run(tb.stack(mem), v.kind, mccio, bench::hints_at(mem), plans);
    add_point(rep, "components", v.name)
        .set("write_mbs", r.write_bw / 1e6)
        .set("read_mbs", r.read_bw / 1e6)
        .set("aggregators", r.write_stats.num_aggregators())
        .set("groups", r.write_stats.num_groups());
    table.add(v.name, util::fixed(r.write_bw / 1e6),
              util::fixed(r.read_bw / 1e6),
              r.write_stats.num_aggregators(), r.write_stats.num_groups(),
              util::format_bytes(static_cast<std::uint64_t>(
                  r.write_stats.buffer_stats().stdev())));
  }
  std::cout << "# Ablation — MCCIO components (IOR interleaved, " << kRanks
            << " processes, " << util::format_bytes(mem)
            << " mean memory per node)\n";
  table.print(std::cout);
}

void variance(const bench::Testbed& tb, bench::JsonReporter& rep) {
  const std::uint64_t mem = 16 * kMiB;
  const core::PlanFactory plans = bench::ior_plans({});
  util::Table table({"rel stdev", "normal wr MB/s", "mccio wr MB/s",
                     "wr gain", "normal rd MB/s", "mccio rd MB/s",
                     "rd gain"});
  for (const double stdev : {0.0, 0.1, 0.25, 0.5, 0.75, 1.0}) {
    const auto normal = run(tb.stack(mem, stdev), core::DriverKind::kTwoPhase,
                            {}, bench::hints_at(mem), plans);
    const auto mccio = run(tb.stack(mem, stdev), core::DriverKind::kMccio,
                           {}, bench::hints_at(mem), plans);
    add_point(rep, "variance", "stdev=" + util::fixed(stdev, 2))
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
  std::cout << "# Ablation — memory-availability variance (IOR, " << kRanks
            << " processes, " << util::format_bytes(mem)
            << " mean memory per node)\n";
  table.print(std::cout);
}

void nah(const bench::Testbed& tb, bench::JsonReporter& rep) {
  const core::PlanFactory plans = bench::ior_plans({});
  util::Table table({"N_ah", "mem/node", "write MB/s", "read MB/s",
                     "aggregators"});
  for (const std::uint64_t mem : {128 * kMiB, 8 * kMiB}) {
    for (int n_ah = 1; n_ah <= 4; ++n_ah) {
      core::MccioConfig mccio;
      mccio.n_ah = n_ah;
      // Let N_ah actually fan out: allow extra slots whenever each still
      // gets at least Msg_ind/4.
      mccio.msg_ind = 32 * kMiB;
      const auto r = run(tb.stack(mem), core::DriverKind::kMccio, mccio,
                         bench::hints_at(mem), plans);
      add_point(rep, "nah",
                "nah=" + std::to_string(n_ah) + " " + util::format_bytes(mem))
          .set("n_ah", n_ah)
          .set("mem_bytes", mem)
          .set("write_mbs", r.write_bw / 1e6)
          .set("read_mbs", r.read_bw / 1e6)
          .set("aggregators", r.write_stats.num_aggregators());
      table.add(n_ah, util::format_bytes(mem),
                util::fixed(r.write_bw / 1e6),
                util::fixed(r.read_bw / 1e6),
                r.write_stats.num_aggregators());
    }
  }
  std::cout << "# Ablation — aggregators per node (N_ah), IOR " << kRanks
            << " processes\n";
  table.print(std::cout);
}

void strategy(const bench::Testbed& tb, bench::JsonReporter& rep) {
  const std::uint64_t mem = 16 * kMiB;
  const workloads::IorConfig w{.block_size = 4 * kMiB,
                               .transfer_size = 64 * kKiB};
  const core::PlanFactory plans = bench::ior_plans(w);
  util::Table table({"strategy", "write MB/s", "read MB/s"});
  for (const auto kind :
       {core::DriverKind::kIndependent, core::DriverKind::kTwoPhase,
        core::DriverKind::kMccio}) {
    const auto r = run(tb.stack(mem), kind, {}, bench::hints_at(mem), plans);
    add_point(rep, "strategy", core::driver_name(kind))
        .set("write_mbs", r.write_bw / 1e6)
        .set("read_mbs", r.read_bw / 1e6);
    table.add(core::driver_name(kind), util::fixed(r.write_bw / 1e6),
              util::fixed(r.read_bw / 1e6));
  }
  std::cout << "# Ablation — independent vs collective strategies (IOR "
               "interleaved, "
            << kRanks << " processes, " << util::format_bytes(w.block_size)
            << " per process)\n";
  table.print(std::cout);
}

void hierarchy(bench::JsonReporter& rep) {
  const std::uint64_t mem = 4 * kMiB;
  const core::PlanFactory plans = bench::ior_plans({});
  util::Table table({"ranks/node", "driver", "flat wr MB/s", "hier wr MB/s",
                     "flat rd MB/s", "hier rd MB/s", "inter msgs flat",
                     "inter msgs hier", "msg ratio"});
  for (const int rpn : {1, 2, 4, 6, 12}) {
    const bench::Testbed tb{.nodes = kRanks / rpn, .ranks_per_node = rpn};
    for (const auto kind :
         {core::DriverKind::kTwoPhase, core::DriverKind::kMccio}) {
      io::Hints hints = bench::hints_at(mem);
      const auto flat = run(tb.stack(mem), kind, {}, hints, plans);
      hints.cb_node_leaders = true;
      const auto hier = run(tb.stack(mem), kind, {}, hints, plans);

      const std::uint64_t flat_msgs = flat.write_stats.msgs_inter_node() +
                                      flat.read_stats.msgs_inter_node();
      const std::uint64_t hier_msgs = hier.write_stats.msgs_inter_node() +
                                      hier.read_stats.msgs_inter_node();
      util::Json& point =
          add_point(rep, "hierarchy",
                    std::string(core::driver_name(kind)) + "/rpn" +
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
            << kRanks << " processes, " << util::format_bytes(mem)
            << " aggregation memory)\n";
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  bench::JsonReporter rep(cli, "ablation_ior");
  bench::configure_audit(cli);
  cli.check_unused();
  const bench::Testbed tb;

  components(tb, rep);
  variance(tb, rep);
  nah(tb, rep);
  strategy(tb, rep);
  hierarchy(rep);
  rep.write();
  return 0;
}
