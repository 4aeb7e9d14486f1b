// Figure 8: IOR interleaved write/read bandwidth vs per-aggregator memory
// at 1080 cores (90 nodes × 12), 32 MB of I/O data per MPI process.
//
// Paper anchors (normal two-phase): write 1631.91 → 396.36 MB/s and read
// 2047.05 → 861.62 MB/s as the aggregation memory shrinks from 128 MB to
// 2 MB; MCCIO average improvement +24.3 % write / +57.8 % read.
//
// --threads=N runs the sweep's independent (memory × driver) cells on N
// host threads; --threads-sweep=1,2,4,8 reruns the whole sweep once per
// thread count, asserts the figure results are identical at every count,
// and reports wall-clock scaling (the perf/BENCH_fig8_ior1080.mt.json
// snapshot).
#include <sstream>
#include <thread>

#include "common.h"
#include "util/cli.h"

using namespace mcio;

namespace {

std::vector<int> parse_thread_list(const std::string& csv) {
  std::vector<int> out;
  std::istringstream is(csv);
  std::string item;
  while (std::getline(is, item, ',')) {
    MCIO_CHECK_MSG(!item.empty(), "bad --threads-sweep list: " << csv);
    out.push_back(std::stoi(item));
    MCIO_CHECK_GE(out.back(), 1);
  }
  MCIO_CHECK_MSG(!out.empty(), "empty --threads-sweep list");
  MCIO_CHECK_MSG(out.front() == 1,
                 "--threads-sweep must start at 1 (the speedup baseline)");
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  bench::Testbed tb;
  tb.nodes = static_cast<int>(cli.get_int("nodes", 90));
  const int nranks = static_cast<int>(
      cli.get_int("ranks", tb.nodes * tb.ranks_per_node));
  workloads::IorConfig w;
  w.block_size = cli.get_bytes("block", 32ull << 20);
  w.transfer_size = cli.get_bytes("transfer", 1ull << 20);
  w.segments = 1;
  w.interleaved = true;
  const double stdev = cli.get_double("mem-stdev", 0.5);
  const bool hier = cli.get_bool("hier", false);
  const bench::ParallelFlags par(cli);
  std::string tsweep_csv = cli.get_string("threads-sweep", "");
  if (tsweep_csv == "true") tsweep_csv = "1,2,4,8";  // bare flag
  const bool tsweep_mode = !tsweep_csv.empty();
  bench::JsonReporter rep(cli, tsweep_mode ? "fig8_ior1080.mt"
                                           : "fig8_ior1080");
  bench::configure_audit(cli);
  cli.check_unused();

  const auto make_plan = [&](int rank, int p) {
    return workloads::ior_plan(
        rank, p, w,
        util::Payload::virtual_bytes(workloads::ior_bytes_per_rank(w)));
  };

  bench::RunOptions base;
  base.nranks = nranks;
  base.testbed = tb;
  base.mem_stdev = stdev;
  base.hints.cb_node_leaders = hier;
  const auto mems = bench::paper_memory_sweep();

  std::vector<bench::SweepPoint> points;
  if (tsweep_mode) {
    // Thread-scaling mode: one full sweep per thread count. The figure
    // results must be byte-identical at every count — point parallelism
    // only reorders which host thread computes which independent cell —
    // so the first sweep's results are the golden the rest are checked
    // against, and the only varying output is host wall clock.
    const std::vector<int> tlist = parse_thread_list(tsweep_csv);
    util::Table ttable({"threads", "wall s", "speedup vs 1t"});
    double wall_1t = 0.0;
    // Speedup is honest elapsed wall clock, so it is bounded by the
    // host's core count — the snapshot records host_cpus next to each
    // point, plus the summed per-cell task seconds (the work the pool
    // had to place) so scaling efficiency is interpretable anywhere.
    const unsigned host_cpus = std::thread::hardware_concurrency();
    for (const int t : tlist) {
      const double t0 = bench::wall_now();
      auto pts = bench::run_memory_sweep(t, mems, base, make_plan);
      const double wall = bench::wall_now() - t0;
      double task_s = 0.0;
      for (const bench::SweepPoint& pt : pts) task_s += pt.meter.wall_s;
      if (points.empty()) {
        points = std::move(pts);
        wall_1t = wall;
      } else {
        bench::check_sweep_equal(points, pts);
      }
      const double speedup = wall_1t / wall;
      std::uint64_t peak = 0;
      for (const bench::SweepPoint& pt : points) {
        peak = std::max(peak, pt.meter.tracked_peak_bytes);
      }
      rep.add_point("threads=" + std::to_string(t),
                    bench::TaskMeter{wall, peak})
          .set("threads", t)
          .set("speedup_vs_1", speedup)
          .set("task_s", task_s)
          .set("host_cpus", static_cast<std::uint64_t>(host_cpus));
      ttable.add(t, util::fixed(wall), util::fixed(speedup));
    }
    std::cout << "# Figure 8 — thread-scaling sweep (results identical at "
                 "every count)\n";
    ttable.print(std::cout);
  } else {
    points = bench::run_memory_sweep(par.threads, mems, base, make_plan);
  }

  util::Table table({"mem/agg", "normal wr MB/s", "mccio wr MB/s",
                     "wr gain", "normal rd MB/s", "mccio rd MB/s",
                     "rd gain", "aggs(mccio)", "groups"});
  double wr_gain_sum = 0.0;
  double rd_gain_sum = 0.0;
  int count = 0;
  double norm_wr_max = 0.0, norm_wr_min = 1e30;
  double norm_rd_max = 0.0, norm_rd_min = 1e30;
  for (const bench::SweepPoint& pt : points) {
    const std::uint64_t mem = pt.mem_bytes;
    const bench::RunResult& normal = pt.normal;
    const bench::RunResult& mccio = pt.mccio;

    const double wr_gain = mccio.write_bw / normal.write_bw - 1.0;
    const double rd_gain = mccio.read_bw / normal.read_bw - 1.0;
    if (!tsweep_mode) {
      util::Json& point =
          rep.add_point(util::format_bytes(mem), pt.meter)
              .set("mem_bytes", mem)
              .set("normal_write_mbs", normal.write_bw / 1e6)
              .set("mccio_write_mbs", mccio.write_bw / 1e6)
              .set("normal_read_mbs", normal.read_bw / 1e6)
              .set("mccio_read_mbs", mccio.read_bw / 1e6)
              .set("mccio_aggregators", mccio.write_stats.num_aggregators())
              .set("mccio_groups", mccio.write_stats.num_groups());
      bench::set_message_counters(point, "normal_write_",
                                  normal.write_stats);
      bench::set_message_counters(point, "normal_read_", normal.read_stats);
      bench::set_message_counters(point, "mccio_write_", mccio.write_stats);
      bench::set_message_counters(point, "mccio_read_", mccio.read_stats);
    }
    wr_gain_sum += wr_gain;
    rd_gain_sum += rd_gain;
    ++count;
    norm_wr_max = std::max(norm_wr_max, normal.write_bw / 1e6);
    norm_wr_min = std::min(norm_wr_min, normal.write_bw / 1e6);
    norm_rd_max = std::max(norm_rd_max, normal.read_bw / 1e6);
    norm_rd_min = std::min(norm_rd_min, normal.read_bw / 1e6);
    table.add(util::format_bytes(mem), util::fixed(normal.write_bw / 1e6),
              util::fixed(mccio.write_bw / 1e6), util::percent(wr_gain),
              util::fixed(normal.read_bw / 1e6),
              util::fixed(mccio.read_bw / 1e6), util::percent(rd_gain),
              mccio.write_stats.num_aggregators(),
              mccio.write_stats.num_groups());
  }
  std::cout << "# Figure 8 — IOR, " << nranks
            << " processes, 32 MB per process, interleaved\n";
  table.print(std::cout);
  std::cout << "normal write range: " << util::fixed(norm_wr_max) << " -> "
            << util::fixed(norm_wr_min)
            << " MB/s   (paper: 1631.91 -> 396.36)\n";
  std::cout << "normal read range:  " << util::fixed(norm_rd_max) << " -> "
            << util::fixed(norm_rd_min)
            << " MB/s   (paper: 2047.05 -> 861.62)\n";
  std::cout << "average write improvement: "
            << util::percent(wr_gain_sum / count)
            << "   (paper: +24.3%)\n";
  std::cout << "average read improvement:  "
            << util::percent(rd_gain_sum / count)
            << "   (paper: +57.8%)\n";
  rep.write();
  return 0;
}
