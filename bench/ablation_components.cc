// Ablation: which MCCIO component buys what?
//
// Runs the Figure-7 configuration (IOR interleaved, 120 processes) with
// each of the three §3 components disabled in turn — aggregation group
// division, workload-portion remerging, and memory-aware aggregator
// location — plus the full strategy and the two-phase baseline.
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
  bench::JsonReporter rep(cli, "ablation_components");
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

  struct Variant {
    const char* name;
    core::DriverKind kind;
    bool groups;
    bool remerge;
    bool memory;
  };
  const Variant variants[] = {
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
    core::SimStack stack(tb.stack(mem));
    const auto r = core::run_write_read(stack, v.kind, mccio,
                                        bench::hints_at(mem), nranks,
                                        make_plan);
    rep.add_point(v.name)
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
  std::cout << "# Ablation — MCCIO components (IOR interleaved, " << nranks
            << " processes, " << util::format_bytes(mem)
            << " mean memory per node)\n";
  table.print(std::cout);
  rep.write();
  return 0;
}
