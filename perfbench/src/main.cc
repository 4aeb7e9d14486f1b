// mccio_perfbench: runs one named workload of the benchmark and writes
// its metrics as JSON (README.md in this directory; run.py drives it).
//
//   mccio_perfbench --workload=ior-1080 --seed=20120512 --trace=0
//                   --out=result.json [--trace-out=spans.json] [--tiny]
//
// --trace=0 makes one pass over the workload (every trial × memory
// level × both drivers, a collective write then a read each) and reports
// the end-to-end metrics. --trace=1 makes one untraced pass, one traced
// pass with the Auditor attached behind the Tracer, one traced pass
// without it, and the plan-only simulations, and reports the per-layer
// metrics with the passivity cross-check. Both modes check every
// operation.
#include <sys/resource.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "simulation.h"
#include "tracer.h"
#include "util/bytes.h"
#include "util/check.h"
#include "util/cli.h"
#include "util/json.h"
#include "util/memtrack.h"
#include "workload.h"

using namespace perfbench;

namespace {

constexpr double kMB = 1e6;
constexpr double kMiB = 1024.0 * 1024.0;
constexpr DriverKind kDrivers[] = {DriverKind::kTwoPhase, DriverKind::kMccio};

/// One simulation of a pass, with its coordinates.
struct Cell {
  DriverKind driver = DriverKind::kTwoPhase;
  int trial = 0;
  std::uint64_t level = 0;
  SimResult result;

  std::string label() const {
    return std::string(driver_label(driver)) + " " +
           mcio::util::format_bytes(level) + " trial " +
           std::to_string(trial);
  }
};

/// One pass over a workload: every trial × level × both drivers.
struct Pass {
  std::vector<Cell> cells;
  double wall_s = 0.0;
  double setup_s = 0.0;  ///< summed over the pass's simulations
};

/// Runs one cell; with a tracer, under a span of its own with a `setup`
/// child.
void run_cell(const Workload& w, const Observation& base, Cell& cell) {
  Observation obs = base;
  int span = -1;
  if (obs.tracer != nullptr) {
    Span s;
    s.name = cell.label();
    s.parent = base.parent_span;
    s.start_s = host_now();
    span = obs.tracer->add_span(std::move(s));
    obs.parent_span = span;
  }
  cell.result = run_simulation(w, cell.driver, cell.trial, cell.level, obs);
  if (obs.tracer == nullptr) return;
  Span& whole = obs.tracer->spans()[static_cast<std::size_t>(span)];
  whole.end_s = host_now();
  Span setup;
  setup.name = "setup";
  setup.parent = span;
  setup.start_s = whole.start_s;
  setup.end_s = setup.start_s + cell.result.setup_s;
  obs.tracer->add_span(std::move(setup));
}

Pass run_pass(const Workload& w, const Observation& obs) {
  Pass pass;
  const double t0 = host_now();
  for (int trial = 0; trial < w.trials; ++trial) {
    for (const std::uint64_t level : w.levels) {
      for (const DriverKind driver : kDrivers) {
        Cell cell{driver, trial, level, {}};
        run_cell(w, obs, cell);
        pass.setup_s += cell.result.setup_s;
        pass.cells.push_back(std::move(cell));
      }
    }
  }
  pass.wall_s = host_now() - t0;
  return pass;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / kMiB;  // KiB on Linux
}

/// Operation outcomes of the audited passes, and the extra checks.
struct Verdict {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, bool> checks;

  void count(const std::string& where, const Pass& pass) {
    for (const Cell& c : pass.cells) {
      for (const OpResult* op : {&c.result.write, &c.result.read}) {
        ++attempted;
        if (op->failure.empty()) continue;
        ++failed;
        failures.push_back(where + " " + c.label() + " " +
                           (op == &c.result.write ? "write" : "read") +
                           ": " + op->failure);
      }
    }
  }

  /// Records check `name`; it holds only if every call for it passes.
  void check(const std::string& name, bool ok) {
    auto [it, fresh] = checks.emplace(name, ok);
    if (!fresh) it->second = it->second && ok;
  }
};

bool same_passes(const Pass& a, const Pass& b, bool compare_audit) {
  if (a.cells.size() != b.cells.size()) return false;
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    const SimResult& x = a.cells[i].result;
    const SimResult& y = b.cells[i].result;
    if (!same_simulated(x, y)) return false;
    if (compare_audit && (x.write.audit != y.write.audit ||
                          x.read.audit != y.read.audit)) {
      return false;
    }
  }
  return true;
}

/// Geometric mean over the pass's trials and levels of one
/// driver/direction, MB/s.
double pass_mbs(const Pass& pass, DriverKind driver, bool write) {
  double log_sum = 0.0;
  int n = 0;
  for (const Cell& c : pass.cells) {
    if (c.driver != driver) continue;
    const OpResult& op = write ? c.result.write : c.result.read;
    log_sum += std::log(op.bandwidth / kMB);
    ++n;
  }
  return std::exp(log_sum / n);
}

class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    json_.set(name, mcio::util::Json::object()
                        .set("value", value)
                        .set("unit", unit));
  }
  mcio::util::Json take() { return std::move(json_); }

 private:
  mcio::util::Json json_ = mcio::util::Json::object();
};

/// Figure 8's published anchors against the two-phase bandwidths at the
/// 128 and 2 MiB levels and the mean MCCIO gain over the levels run
/// (informational; only meaningful on ior-1080).
mcio::util::Json model_error(const Pass& pass) {
  std::map<std::pair<int, std::uint64_t>, const SimResult*> at;
  for (const Cell& c : pass.cells) {
    if (c.trial == 0) at[{static_cast<int>(c.driver), c.level}] = &c.result;
  }
  const auto bw = [&](DriverKind d, std::uint64_t level, bool write) {
    const SimResult* r = at.at({static_cast<int>(d), level});
    return (write ? r->write.bandwidth : r->read.bandwidth) / kMB;
  };
  mcio::util::Json out = mcio::util::Json::object();
  const auto rel = [&](const std::string& name, double measured,
                       double paper) {
    out.set(name, mcio::util::Json::object()
                      .set("measured", measured)
                      .set("paper", paper)
                      .set("relative_error", measured / paper - 1.0));
  };
  using mcio::util::kMiB;
  const auto two = DriverKind::kTwoPhase;
  rel("twophase_write_128MiB_mbs", bw(two, 128 * kMiB, true), 1631.91);
  rel("twophase_write_2MiB_mbs", bw(two, 2 * kMiB, true), 396.36);
  rel("twophase_read_128MiB_mbs", bw(two, 128 * kMiB, false), 2047.05);
  rel("twophase_read_2MiB_mbs", bw(two, 2 * kMiB, false), 861.62);
  double wr_gain = 0.0;
  double rd_gain = 0.0;
  std::size_t n = 0;
  for (const Cell& c : pass.cells) {
    if (c.driver != DriverKind::kMccio || c.trial != 0) continue;
    wr_gain += bw(DriverKind::kMccio, c.level, true) / bw(two, c.level, true) -
               1.0;
    rd_gain += bw(DriverKind::kMccio, c.level, false) /
                   bw(two, c.level, false) -
               1.0;
    ++n;
  }
  rel("mccio_mean_write_gain", wr_gain / static_cast<double>(n), 0.243);
  rel("mccio_mean_read_gain", rd_gain / static_cast<double>(n), 0.578);
  return out;
}

/// End-to-end run: one untraced pass. Repetition across processes is
/// run.py's job (see README.md, "Run conditions").
mcio::util::Json timed_run(const Workload& w, Verdict& v,
                           mcio::util::Json& info) {
  const Pass pass = run_pass(w, Observation{});
  v.count("pass", pass);
  Metrics m;
  m.set("wall_s", pass.wall_s, "s");
  m.set("setup_s", pass.setup_s, "s");
  m.set("peak_rss_mb", peak_rss_mib(), "MiB");
  m.set("twophase_write_mbs", pass_mbs(pass, DriverKind::kTwoPhase, true),
        "MB/s");
  m.set("twophase_read_mbs", pass_mbs(pass, DriverKind::kTwoPhase, false),
        "MB/s");
  m.set("mccio_write_mbs", pass_mbs(pass, DriverKind::kMccio, true), "MB/s");
  m.set("mccio_read_mbs", pass_mbs(pass, DriverKind::kMccio, false), "MB/s");
  mcio::util::Json cells = mcio::util::Json::array();
  for (const Cell& c : pass.cells) {
    cells.push(mcio::util::Json::object()
                   .set("cell", c.label())
                   .set("write_mbs", c.result.write.bandwidth / kMB)
                   .set("read_mbs", c.result.read.bandwidth / kMB));
  }
  info.set("cells", std::move(cells));
  if (w.figure8_anchors) info.set("model_error", model_error(pass));
  return m.take();
}

/// Traced run: the per-layer metrics (see README.md for their seams).
mcio::util::Json traced_run(const Workload& w, Verdict& v,
                            mcio::util::Json& info,
                            const std::string& trace_out) {
  // Untraced reference pass, then the traced pass with the Auditor
  // behind the Tracer, then the same traced pass without the Auditor.
  const Pass plain = run_pass(w, Observation{});
  v.count("untraced", plain);

  Tracer tracer(&mcio::verify::global_auditor());
  Span root;
  root.name = "traced pass";
  root.start_s = host_now();
  const int root_span = tracer.add_span(std::move(root));
  mcio::util::memtrack::reset();
  const Pass traced = run_pass(w, Observation{&tracer, root_span, true});
  const double alloc_mib =
      static_cast<double>(mcio::util::memtrack::allocated_bytes()) / kMiB;
  const double heap_peak_mib =
      static_cast<double>(mcio::util::memtrack::peak_bytes()) / kMiB;
  tracer.spans()[static_cast<std::size_t>(root_span)].end_s = host_now();
  v.count("traced", traced);

  Tracer bare(nullptr);
  const Pass unaudited = run_pass(w, Observation{&bare, -1, false});

  // Passivity: the tracer and the driver wrapper change nothing.
  v.check("passivity", same_passes(plain, traced, true) &&
                           same_passes(plain, unaudited, false));
  const Tracer::Totals& t = tracer.totals();
  std::uint64_t audit_messages = 0;
  for (const Cell& c : plain.cells) {
    audit_messages +=
        c.result.write.audit.messages + c.result.read.audit.messages;
  }
  v.check("passivity", t.messages == audit_messages);

  Tracer plan_tracer(&mcio::verify::global_auditor());
  const double io_plan_s =
      run_plan_only(w, DriverKind::kTwoPhase, w.levels.front(), plan_tracer);
  const double core_plan_s =
      run_plan_only(w, DriverKind::kMccio, w.levels.front(), plan_tracer);

  double run_host_s = 0.0;
  double virtual_s = 0.0;
  double gen_host_s = 0.0;
  double extents = 0.0;
  double write_sim_s = 0.0;
  double read_sim_s = 0.0;
  double findings = 0.0;
  double msgs_inter = 0.0, msgs_intra = 0.0, inter_bytes = 0.0;
  double shuffle_inter = 0.0, shuffle_intra = 0.0, rmw = 0.0, rounds = 0.0;
  mcio::metrics::DegradationStats deg;
  double groups = 0.0, aggs = 0.0, buf_mean = 0.0, buf_cv = 0.0,
         pressure = 0.0;
  double remerges = 0.0, exhausted = 0.0;
  int mccio_cells = 0;
  for (const Cell& c : traced.cells) {
    const SimResult& r = c.result;
    run_host_s += r.run_host_s;
    virtual_s += r.virtual_s;
    gen_host_s += r.gen_host_s;
    extents += static_cast<double>(r.extents);
    write_sim_s += r.write.sim_s;
    read_sim_s += r.read.sim_s;
    for (const OpResult* op : {&r.write, &r.read}) {
      const mcio::metrics::CollectiveStats& s = op->stats;
      findings += static_cast<double>(op->audit.findings);
      msgs_inter += static_cast<double>(s.msgs_inter_node());
      msgs_intra += static_cast<double>(s.msgs_intra_node());
      inter_bytes += static_cast<double>(s.bytes_inter_node());
      shuffle_inter += static_cast<double>(s.shuffle_inter_node());
      shuffle_intra += static_cast<double>(s.shuffle_intra_node());
      rmw += static_cast<double>(s.rmw_bytes());
      for (const mcio::metrics::AggregatorRecord& a : s.aggregators()) {
        rounds += a.rounds;
      }
      const mcio::metrics::DegradationStats& d = s.degradation();
      deg.lease_denials += d.lease_denials;
      deg.lease_retries += d.lease_retries;
      deg.backoff_s += d.backoff_s;
      deg.revocations += d.revocations;
      deg.buffer_shrinks += d.buffer_shrinks;
      deg.spilled_bytes += d.spilled_bytes;
      deg.borrows += d.borrows;
      deg.borrowed_bytes += d.borrowed_bytes;
      deg.donor_revocations += d.donor_revocations;
      deg.fallback_ranks += d.fallback_ranks;
      if (c.driver == DriverKind::kMccio) {
        remerges += static_cast<double>(d.plan_remerges);
        exhausted += static_cast<double>(d.exhausted_nodes);
      }
    }
    if (c.driver == DriverKind::kMccio) {
      const mcio::metrics::CollectiveStats& s = r.write.stats;
      ++mccio_cells;
      groups += s.num_groups();
      aggs += s.num_aggregators();
      buf_mean += s.buffer_stats().mean() / kMiB;
      buf_cv += s.buffer_stats().cv();
      pressure += s.pressure_stats().mean();
    }
  }
  const auto as_d = [](std::uint64_t x) { return static_cast<double>(x); };
  const double sim_host_s = run_host_s - t.slice_s;

  Metrics m;
  m.set("sim.events", as_d(t.slices), "count");
  m.set("sim.host_s", sim_host_s, "s");
  m.set("sim.host_ns_per_event", sim_host_s / as_d(t.slices) * 1e9, "ns");
  m.set("sim.virtual_s", virtual_s, "sim_s");
  m.set("mpi.messages", as_d(t.messages), "count");
  m.set("mpi.message_mb", as_d(t.message_bytes) / kMB, "MB");
  m.set("mpi.unexpected_ratio", as_d(t.unexpected) / as_d(t.messages),
        "ratio");
  m.set("mpi.waits", as_d(t.waits), "count");
  m.set("io.driver_host_s", t.driver_s, "s");
  m.set("io.plan_host_s", io_plan_s, "s");
  m.set("io.msgs_inter_node", msgs_inter, "count");
  m.set("io.msgs_intra_node", msgs_intra, "count");
  m.set("io.inter_node_mb", inter_bytes / kMB, "MB");
  m.set("io.shuffle_inter_mb", shuffle_inter / kMB, "MB");
  m.set("io.shuffle_intra_mb", shuffle_intra / kMB, "MB");
  m.set("io.rmw_mb", rmw / kMB, "MB");
  m.set("io.agg_rounds", rounds, "count");
  m.set("io.write_sim_s", write_sim_s, "sim_s");
  m.set("io.read_sim_s", read_sim_s, "sim_s");
  m.set("core.plan_host_s", core_plan_s, "s");
  m.set("core.groups", groups / mccio_cells, "count");
  m.set("core.aggregators", aggs / mccio_cells, "count");
  m.set("core.agg_buffer_mean_mb", buf_mean / mccio_cells, "MiB");
  m.set("core.agg_buffer_cv", buf_cv / mccio_cells, "ratio");
  m.set("core.agg_pressure_mean", pressure / mccio_cells, "ratio");
  m.set("core.plan_remerges", remerges, "count");
  m.set("core.exhausted_nodes", exhausted, "count");
  const double grants = as_d(t.lease_grants);
  m.set("node.lease_grants", grants, "count");
  m.set("node.grant_ratio", grants / (grants + as_d(deg.lease_denials)),
        "ratio");
  m.set("node.lease_retries", as_d(deg.lease_retries), "count");
  m.set("node.backoff_sim_s", deg.backoff_s, "sim_s");
  m.set("node.revocations", as_d(deg.revocations), "count");
  m.set("node.buffer_shrinks", as_d(deg.buffer_shrinks), "count");
  m.set("node.spilled_mb", as_d(deg.spilled_bytes) / kMB, "MB");
  m.set("node.borrows", as_d(deg.borrows), "count");
  m.set("node.borrowed_mb", as_d(deg.borrowed_bytes) / kMB, "MB");
  m.set("node.donor_revocations", as_d(deg.donor_revocations), "count");
  m.set("node.fallback_ranks", as_d(deg.fallback_ranks), "count");
  m.set("pfs.writes", as_d(t.pfs_writes), "count");
  m.set("pfs.reads", as_d(t.pfs_reads), "count");
  m.set("pfs.written_mb", as_d(t.pfs_bytes_written) / kMB, "MB");
  m.set("pfs.read_mb", as_d(t.pfs_bytes_read) / kMB, "MB");
  m.set("pfs.mean_request_kb",
        as_d(t.pfs_bytes_written + t.pfs_bytes_read) /
            as_d(t.pfs_writes + t.pfs_reads) / 1024.0,
        "KiB");
  m.set("workloads.gen_host_s", gen_host_s, "s");
  m.set("workloads.extents", extents, "count");
  m.set("verify.findings", findings, "count");
  m.set("verify.host_s", traced.wall_s - unaudited.wall_s, "s");
  m.set("util.alloc_mb", alloc_mib, "MiB");
  m.set("util.heap_peak_mb", heap_peak_mib, "MiB");
  m.set("trace.overhead_s", traced.wall_s - plain.wall_s, "s");

  info.set("untraced_wall_s", plain.wall_s)
      .set("traced_wall_s", traced.wall_s)
      .set("traced_unaudited_wall_s", unaudited.wall_s);
  if (!trace_out.empty()) {
    std::vector<Span> spans = tracer.spans();
    for (const Span& s : plan_tracer.spans()) spans.push_back(s);
    mcio::util::Json doc = mcio::util::Json::object();
    doc.set("workload", w.name).set("spans", spans_json(spans));
    std::ofstream os(trace_out);
    MCIO_CHECK_MSG(os.good(), "cannot write " << trace_out);
    doc.dump(os);
  }
  return m.take();
}

}  // namespace

int main(int argc, char** argv) {
  mcio::util::Cli cli(argc, argv);
  const std::string name = cli.get_string("workload", "");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 20120512));
  const bool trace = cli.get_int("trace", 0) != 0;
  const bool tiny = cli.get_bool("tiny", false);
  const std::string out = cli.get_string("out", "");
  const std::string trace_out = cli.get_string("trace-out", "");
  cli.check_unused();
  MCIO_CHECK_MSG(!out.empty(), "--out=<result.json> is required");

  const Workload w = make_workload(name, tiny, seed);
  Verdict v;
  mcio::util::Json info = mcio::util::Json::object();
  mcio::util::Json metrics =
      trace ? traced_run(w, v, info, trace_out)
            : timed_run(w, v, info);

  mcio::util::Json checks = mcio::util::Json::object();
  for (const auto& [check, ok] : v.checks) checks.set(check, ok);
  mcio::util::Json failures = mcio::util::Json::array();
  for (const std::string& f : v.failures) failures.push(f);
  mcio::util::Json doc = mcio::util::Json::object();
  doc.set("workload", w.name)
      .set("seed", seed)
      .set("ranks", w.ranks)
      .set("attempted", v.attempted)
      .set("failed", v.failed)
      .set("checks", std::move(checks))
      .set("failures", std::move(failures))
      .set("metrics", std::move(metrics))
      .set("info", std::move(info));
  std::ofstream os(out);
  MCIO_CHECK_MSG(os.good(), "cannot write " << out);
  doc.dump(os);
  return 0;
}
