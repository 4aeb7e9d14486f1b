// Runs the §3 parameter-measurement procedure (core::Tuner) against the
// calibrated testbed and prints the values MCCIO would use: Msg_ind,
// N_ah, Mem_min and Msg_group.
#include "common.h"
#include "core/tuner.h"
#include "util/cli.h"

using namespace mcio;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  bench::JsonReporter rep(cli, "tuner_probe");
  bench::configure_audit(cli);
  cli.check_unused();
  bench::Testbed tb;
  tb.nodes = 10;
  core::Tuner tuner(tb.cluster(), tb.pfs());
  const auto r = tuner.tune();
  std::cout << "# Tuner — measured MCCIO parameters on the simulated "
               "testbed\n";
  util::Table table({"parameter", "value"});
  table.add("Msg_ind", util::format_bytes(r.msg_ind));
  table.add("N_ah", r.n_ah);
  table.add("Mem_min", util::format_bytes(r.mem_min));
  table.add("Msg_group", util::format_bytes(r.msg_group));
  table.print(std::cout);
  rep.add_point("tuned")
      .set("msg_ind_bytes", r.msg_ind)
      .set("n_ah", r.n_ah)
      .set("mem_min_bytes", r.mem_min)
      .set("msg_group_bytes", r.msg_group);
  rep.write();
  return 0;
}
