// Shared bench harness: the simulated testbed (paper §4: 640-node Linux
// cluster, 2×6-core Xeons, 24 GB/node, DDR InfiniBand, DDN-backed Lustre
// with 1 MB stripes) as a core::StackConfig, the --json reporter, the IOR
// plan factory, and the memory sweep and report of Figures 6-8. Every
// experiment runs the one write/read loop of core::run_write_read.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "metrics/collective_stats.h"
#include "util/bytes.h"
#include "util/check.h"
#include "util/cli.h"
#include "util/memtrack.h"
#include "util/parallel.h"
#include "verify/auditor.h"
#include "util/json.h"
#include "util/table.h"
#include "workloads/collperf.h"
#include "workloads/ior.h"

namespace mcio::bench {

/// Consumes `--no-audit`: benches run under the global simulation Auditor
/// by default (observers are passive, so figures are byte-identical
/// either way); the flag detaches it for hot-loop profiling.
inline void configure_audit(const util::Cli& cli) {
  if (cli.get_bool("no-audit", false)) {
    verify::set_global_observer(nullptr);
  }
}

/// Host wall clock in seconds (monotonic; only differences are meaningful).
inline double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Peak resident set size of this *process* in bytes — a lifetime
/// high-water mark that only ever grows. Useful as a whole-run figure;
/// never attribute it to an individual sweep point (ISSUE 8: every later
/// point would inherit the max of the earlier ones). Per-point peaks come
/// from util::memtrack instead.
inline std::uint64_t run_peak_rss_bytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  // ru_maxrss is KiB on Linux.
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
}

/// Host-side meters of one bench task: wall clock and the peak of
/// tracked heap allocations while it ran (memtrack is thread-local, so a
/// task's meters are valid wherever the pool schedules it).
struct TaskMeter {
  double wall_s = 0.0;
  std::uint64_t tracked_peak_bytes = 0;
};

/// Meters `fn` on the calling thread: resets the thread's allocation
/// tracker, runs it, and reports wall time + allocation high-water.
inline TaskMeter metered(const std::function<void()>& fn) {
  TaskMeter m;
  const double t0 = wall_now();
  util::memtrack::reset();
  fn();
  m.tracked_peak_bytes = util::memtrack::peak_bytes();
  m.wall_s = wall_now() - t0;
  return m;
}

/// Machine-readable results behind `--json[=path]`; the bare flag writes
/// BENCH_<name>.json in the working directory. Each figure point records
/// whatever simulated metrics the caller sets plus the host wall-clock
/// spent producing it and its tracked-allocation peak — the numbers the
/// perf harness tracks across revisions. Per-point `peak_rss_bytes` is
/// the thread-local allocation high-water (reset per point); the
/// process-lifetime getrusage maximum is reported once, per document, as
/// `run_peak_rss_bytes` (it is monotone and must not be attributed to
/// points). The human-readable table output is unchanged either way.
class JsonReporter {
 public:
  JsonReporter(const util::Cli& cli, std::string name)
      : name_(std::move(name)), path_(cli.get_string("json", "")) {
    // Bare `--json` parses as "true"; `--json=` as "". Both mean
    // "the default file".
    if (cli.has("json") && (path_.empty() || path_ == "true")) {
      path_ = "BENCH_" + name_ + ".json";
    }
    mark_ = start_ = wall_now();
    util::memtrack::reset();
  }

  bool enabled() const { return !path_.empty(); }

  /// Records one figure point; chain .set() on the result to attach the
  /// point's parameters and simulated metrics. The wall-clock and the
  /// allocation peak charged to the point cover everything since the
  /// previous add_point() (or construction), so call it right after
  /// computing the point — or use the explicit-meter overload when
  /// points are computed on a pool.
  util::Json& add_point(std::string label) {
    const double now = wall_now();
    util::Json& p =
        add_point(std::move(label),
                  TaskMeter{now - mark_, util::memtrack::peak_bytes()});
    mark_ = now;
    util::memtrack::reset();
    return p;
  }

  /// Records one figure point whose meters were measured by the caller
  /// (bench::metered() inside a util::parallel_for task).
  util::Json& add_point(std::string label, const TaskMeter& meter) {
    util::Json p = util::Json::object();
    p.set("label", std::move(label));
    p.set("wall_s", meter.wall_s);
    p.set("peak_rss_bytes", meter.tracked_peak_bytes);
    points_.push_back(std::move(p));
    return points_.back();
  }

  /// Writes the document when --json was given; no-op otherwise.
  void write() {
    if (!enabled()) return;
    util::Json doc = util::Json::object();
    doc.set("schema", "mcio-bench-v2");
    doc.set("bench", name_);
    doc.set("wall_s", wall_now() - start_);
    doc.set("run_peak_rss_bytes", run_peak_rss_bytes());
    // Audit counters (README "Audit counters"): present unless the
    // process opted out with --no-audit.
    if (verify::global_audit_active()) {
      const verify::AuditCounters& c = verify::global_auditor().counters();
      util::Json audit = util::Json::object();
      audit.set("runs", c.runs)
          .set("slices", c.slices)
          .set("messages", c.messages)
          .set("unexpected", c.unexpected)
          .set("waits", c.waits)
          .set("lease_grants", c.lease_grants)
          .set("lease_releases", c.lease_releases)
          .set("pfs_writes", c.pfs_writes)
          .set("pfs_reads", c.pfs_reads)
          .set("pfs_bytes_written", c.pfs_bytes_written)
          .set("pfs_bytes_read", c.pfs_bytes_read)
          .set("collectives", c.collectives)
          .set("findings", c.findings);
      doc.set("audit", std::move(audit));
    }
    util::Json pts = util::Json::array();
    for (util::Json& p : points_) pts.push(std::move(p));
    doc.set("points", std::move(pts));
    std::ofstream os(path_);
    MCIO_CHECK_MSG(os.good(), "cannot write " << path_);
    doc.dump(os);
    std::cerr << "wrote " << path_ << "\n";
  }

 private:
  std::string name_;
  std::string path_;
  double start_ = 0.0;
  double mark_ = 0.0;
  std::vector<util::Json> points_;
};

/// The simulated testbed, calibrated so the baseline two-phase anchors of
/// Figure 8 land in the right ballpark (see EXPERIMENTS.md).
struct Testbed {
  int nodes = 10;
  int ranks_per_node = 12;

  sim::ClusterConfig cluster() const {
    sim::ClusterConfig c;
    c.num_nodes = nodes;
    c.ranks_per_node = ranks_per_node;
    c.nic_bandwidth = 1.5e9;       // DDR InfiniBand, ~1.5 GB/s per port
    c.nic_latency = 2.0e-6;
    c.membus_bandwidth = 25.0e9;   // per-node off-chip bandwidth
    c.node_memory = 24ull << 30;   // 24 GB per node
    c.swap_bandwidth = 40.0e6;     // paging device
    return c;
  }

  pfs::PfsConfig pfs() const {
    pfs::PfsConfig p;
    p.num_osts = 32;
    p.stripe_unit = 1ull << 20;    // 1 MB round-robin stripes (paper)
    p.default_stripe_count = -1;   // striped over all servers (paper)
    // Each "OST" models a DDN RAID LUN: streaming transfers are fast
    // (controller write-back caching), discontiguous access pays heavy
    // head movement + RAID read-modify-write, and reads seek less but
    // stream slower than cached writes.
    p.ost_write_bandwidth = 1.0e9;
    p.ost_read_bandwidth = 117.0e6;
    p.rpc_latency = 0.4e-3;
    p.seek_latency = 79.0e-3;       // write seek: RAID RMW dominated
    p.read_seek_latency = 28.5e-3;  // read seek: head movement only
    p.max_rpc_bytes = 16ull << 20;
    p.store_data = false;          // virtual payloads at paper scale
    return p;
  }

  /// The stack of one experiment at the paper's memory knob M =
  /// `mem_mean`: each node's mean available aggregation memory, drawn
  /// with `mem_stdev` spread as a fraction of the mean (paper §4 ¶4) from
  /// a fixed seed, so every driver sees the same draws.
  core::StackConfig stack(std::uint64_t mem_mean,
                          double mem_stdev = 0.5) const {
    core::StackConfig s;
    s.cluster = cluster();
    s.pfs = pfs();
    s.mem_mean = mem_mean;
    s.mem_variance.relative_stdev = mem_stdev;
    return s;
  }
};

/// The baseline's hints at aggregation memory M: its fixed
/// cb_buffer_size is M.
inline io::Hints hints_at(std::uint64_t mem) {
  io::Hints hints;
  hints.cb_buffer_size = mem;
  return hints;
}

/// The plan factory of an IOR run: each rank's plan over a virtual
/// payload of its size. IorConfig's defaults are the paper's §4 shape
/// (32 MiB per process in 1 MiB interleaved transfers, one segment).
inline core::PlanFactory ior_plans(const workloads::IorConfig& w) {
  return [w](int rank, int nranks) {
    return workloads::ior_plan(
        rank, nranks, w,
        util::Payload::virtual_bytes(workloads::ior_bytes_per_rank(w)));
  };
}

/// Attaches the degradation-ladder counters of one collective phase to a
/// JSON point, prefixed "write_"/"read_" (the --json fault schema).
inline void set_fault_counters(util::Json& point, const std::string& prefix,
                               const metrics::CollectiveStats& stats) {
  const metrics::DegradationStats& d = stats.degradation();
  point.set(prefix + "lease_denials", d.lease_denials)
      .set(prefix + "lease_retries", d.lease_retries)
      .set(prefix + "backoff_s", d.backoff_s)
      .set(prefix + "grant_delays", d.grant_delays)
      .set(prefix + "grant_delay_s", d.grant_delay_s)
      .set(prefix + "revocations", d.revocations)
      .set(prefix + "buffer_shrinks", d.buffer_shrinks)
      .set(prefix + "spills", d.spills)
      .set(prefix + "spilled_bytes", d.spilled_bytes)
      .set(prefix + "plan_remerges", d.plan_remerges)
      .set(prefix + "exhausted_nodes", d.exhausted_nodes)
      .set(prefix + "fallback_ranks", d.fallback_ranks)
      .set(prefix + "fallback_bytes", d.fallback_bytes)
      .set(prefix + "lease_retry_giveups", d.lease_retry_giveups)
      .set(prefix + "borrows", d.borrows)
      .set(prefix + "borrowed_bytes", d.borrowed_bytes)
      .set(prefix + "borrow_denials", d.borrow_denials)
      .set(prefix + "donor_revocations", d.donor_revocations);
}

/// Attaches the exchange-engine message counters of one collective phase
/// to a JSON point, prefixed e.g. "normal_write_"/"mccio_read_" (the
/// --json hierarchy schema): how many logical messages stayed on the node
/// vs crossed the interconnect, and the bytes that crossed.
inline void set_message_counters(util::Json& point,
                                 const std::string& prefix,
                                 const metrics::CollectiveStats& stats) {
  point.set(prefix + "msgs_intra_node", stats.msgs_intra_node())
      .set(prefix + "msgs_inter_node", stats.msgs_inter_node())
      .set(prefix + "bytes_inter_node", stats.bytes_inter_node());
}

/// The memory sweep of Figures 6-8, largest first like the paper's plots.
inline std::vector<std::uint64_t> paper_memory_sweep() {
  using util::kMiB;
  return {128 * kMiB, 64 * kMiB, 32 * kMiB, 16 * kMiB,
          8 * kMiB,   4 * kMiB,  2 * kMiB};
}

/// What a Figure 6-8 memory sweep holds fixed across its points. Each
/// point sets the stack's memory mean and the hints' cb_buffer_size to
/// its memory level M.
struct SweepSetup {
  core::StackConfig stack;
  io::Hints hints;
  int nranks = 0;
};

/// One memory-sweep point of Figures 6-8: the baseline and MCCIO runs at
/// one aggregation-memory setting, plus host meters covering both runs
/// (wall summed, allocation peak maxed — the two runs may execute on
/// different pool threads, so their thread-local peaks are independent).
struct SweepPoint {
  std::uint64_t mem_bytes = 0;
  core::WriteReadResult normal;
  core::WriteReadResult mccio;
  TaskMeter meter;
};

/// Computes the (memory × {two-phase, mccio}) grid of a figure on up to
/// `threads` host threads (`--threads`). Every cell builds its own
/// core::SimStack, which audits on its own, so the grid parallelizes
/// without changing any simulated number or the global audit totals.
/// Results come back in sweep order, so a report emitted afterwards is
/// identical for every thread count; only host wall time varies.
inline std::vector<SweepPoint> run_memory_sweep(
    int threads, const std::vector<std::uint64_t>& mems,
    const SweepSetup& setup, const core::PlanFactory& plan_for) {
  MCIO_CHECK_GE(threads, 1);
  std::vector<SweepPoint> points(mems.size());
  for (std::size_t i = 0; i < mems.size(); ++i) {
    points[i].mem_bytes = mems[i];
  }
  const int n = static_cast<int>(mems.size()) * 2;
  std::vector<TaskMeter> meters(static_cast<std::size_t>(n));
  util::parallel_for(threads, n, [&](int task) {
    SweepPoint& pt = points[static_cast<std::size_t>(task / 2)];
    const bool is_mccio = (task % 2) != 0;
    core::StackConfig config = setup.stack;
    config.mem_mean = pt.mem_bytes;
    io::Hints hints = setup.hints;
    hints.cb_buffer_size = pt.mem_bytes;
    meters[static_cast<std::size_t>(task)] = metered([&] {
      core::SimStack stack(config);
      (is_mccio ? pt.mccio : pt.normal) = core::run_write_read(
          stack,
          is_mccio ? core::DriverKind::kMccio : core::DriverKind::kTwoPhase,
          {}, hints, setup.nranks, plan_for);
    });
  });
  for (std::size_t i = 0; i < mems.size(); ++i) {
    const TaskMeter& a = meters[2 * i];
    const TaskMeter& b = meters[2 * i + 1];
    points[i].meter.wall_s = a.wall_s + b.wall_s;
    points[i].meter.tracked_peak_bytes =
        std::max(a.tracked_peak_bytes, b.tracked_peak_bytes);
  }
  return points;
}

/// Consumes the options every figure sweep shares: `--nodes` (default
/// `nodes`), `--ranks` (default every core), `--mem-stdev` and `--hier`.
inline SweepSetup figure_options(const util::Cli& cli, int nodes) {
  Testbed tb;
  tb.nodes = static_cast<int>(cli.get_int("nodes", nodes));
  SweepSetup setup;
  setup.nranks = static_cast<int>(
      cli.get_int("ranks", tb.nodes * tb.ranks_per_node));
  setup.stack = tb.stack(/*mem_mean=*/0, cli.get_double("mem-stdev", 0.5));
  setup.hints.cb_node_leaders = cli.get_bool("hier", false);
  return setup;
}

/// The average MCCIO gains a paper figure reports, as printed ("+81.2%").
struct PaperGains {
  const char* write;
  const char* read;
};

/// Reports one Figure 6-8 memory sweep: prints `title` and the per-point
/// table, then `notes` (lines a figure adds) and the average MCCIO gains
/// beside the paper's, and records every point for --json.
inline void report_memory_sweep(const std::string& title,
                                const std::vector<SweepPoint>& points,
                                const PaperGains& paper, JsonReporter& rep,
                                const std::string& notes = "") {
  util::Table table({"mem/agg", "normal wr MB/s", "mccio wr MB/s",
                     "wr gain", "normal rd MB/s", "mccio rd MB/s",
                     "rd gain", "aggs(mccio)", "groups"});
  double wr_gain_sum = 0.0;
  double rd_gain_sum = 0.0;
  for (const SweepPoint& pt : points) {
    const std::uint64_t mem = pt.mem_bytes;
    const core::WriteReadResult& normal = pt.normal;
    const core::WriteReadResult& mccio = pt.mccio;
    const double wr_gain = mccio.write_bw / normal.write_bw - 1.0;
    const double rd_gain = mccio.read_bw / normal.read_bw - 1.0;
    util::Json& point =
        rep.add_point(util::format_bytes(mem), pt.meter)
            .set("mem_bytes", mem)
            .set("normal_write_mbs", normal.write_bw / 1e6)
            .set("mccio_write_mbs", mccio.write_bw / 1e6)
            .set("normal_read_mbs", normal.read_bw / 1e6)
            .set("mccio_read_mbs", mccio.read_bw / 1e6)
            .set("mccio_aggregators", mccio.write_stats.num_aggregators())
            .set("mccio_groups", mccio.write_stats.num_groups());
    set_message_counters(point, "normal_write_", normal.write_stats);
    set_message_counters(point, "normal_read_", normal.read_stats);
    set_message_counters(point, "mccio_write_", mccio.write_stats);
    set_message_counters(point, "mccio_read_", mccio.read_stats);
    wr_gain_sum += wr_gain;
    rd_gain_sum += rd_gain;
    table.add(util::format_bytes(mem), util::fixed(normal.write_bw / 1e6),
              util::fixed(mccio.write_bw / 1e6), util::percent(wr_gain),
              util::fixed(normal.read_bw / 1e6),
              util::fixed(mccio.read_bw / 1e6), util::percent(rd_gain),
              mccio.write_stats.num_aggregators(),
              mccio.write_stats.num_groups());
  }
  const auto count = static_cast<double>(points.size());
  std::cout << "# " << title << "\n";
  table.print(std::cout);
  std::cout << notes;
  std::cout << "average write improvement: "
            << util::percent(wr_gain_sum / count) << "   (paper: "
            << paper.write << ")\n";
  std::cout << "average read improvement:  "
            << util::percent(rd_gain_sum / count) << "   (paper: "
            << paper.read << ")\n";
}

}  // namespace mcio::bench
