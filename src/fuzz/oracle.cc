#include "fuzz/oracle.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "core/experiment.h"
#include "util/check.h"
#include "workloads/pattern.h"

namespace mcio::fuzz {

using core::DriverKind;

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t fnv1a(std::uint64_t h, const std::byte* data,
                    std::uint64_t len) {
  for (std::uint64_t i = 0; i < len; ++i) {
    h ^= static_cast<std::uint64_t>(data[i]);
    h *= kFnvPrime;
  }
  return h;
}

io::Hints hints_for(const Scenario& s, DriverKind kind) {
  io::Hints h;
  h.cb_buffer_size = s.cb_buffer_size;
  h.cb_nodes = s.cb_nodes;
  h.align_file_domains = s.align_file_domains;
  h.data_sieving_writes = s.data_sieving_writes;
  h.ds_max_gap = s.ds_max_gap;
  // Hierarchy goes on the MCCIO leg only: the flat two-phase run then
  // serves as the byte oracle for the node-leader combine/scatter path.
  h.cb_node_leaders = s.node_leaders && kind == DriverKind::kMccio;
  // The borrow rung arms on both collective legs (it is part of their
  // shared exchange ladder); the independent driver never aggregates, so
  // it stays the un-borrowed byte oracle.
  h.borrow_far_memory = s.borrow && kind != DriverKind::kIndependent;
  return h;
}

core::MccioConfig mccio_config_for(const Scenario& s) {
  core::MccioConfig c;
  c.msg_group = s.msg_group;
  c.msg_ind = s.msg_ind;
  c.n_ah = s.n_ah;
  c.group_division = s.group_division;
  c.remerging = s.remerging;
  c.memory_aware = s.memory_aware;
  return c;
}

/// The scenario's simulated world: real bytes on the PFS, every run
/// audited through a deferred Auditor (enforcing mode would make a
/// finding thrown mid-run indistinguishable from a driver crash).
core::StackConfig stack_config_for(const Scenario& s) {
  core::StackConfig c;
  c.cluster.num_nodes = s.nodes;
  c.cluster.ranks_per_node = s.ranks_per_node;
  c.pfs.num_osts = s.num_osts;
  c.pfs.stripe_unit = s.stripe_unit;
  c.pfs.max_rpc_bytes = s.max_rpc_bytes;
  c.pfs.store_data = true;
  c.mem_mean = s.mem_mean;
  c.mem_variance.relative_stdev = s.mem_stdev;
  // The default floor (1 MiB) would erase the starved end of the sampled
  // mean range; keep draws meaningful below it.
  c.mem_variance.floor_bytes = std::min<std::uint64_t>(
      c.mem_variance.floor_bytes,
      std::max<std::uint64_t>(s.mem_mean / 4, 64ull << 10));
  c.mem_seed = s.mem_seed;
  const node::FaultConfig f{.denial_rate = s.fault_denial,
                            .revoke_rate = s.fault_revoke,
                            .delay_rate = s.fault_delay,
                            .exhaust_rate = s.fault_exhaust,
                            .seed = s.fault_seed};
  if (f.any()) c.faults = f;
  c.audit = core::Audit::kDeferred;
  return c;
}

}  // namespace

RunOutcome run_scenario(const Scenario& scenario, DriverKind kind) {
  scenario.validate();
  RunOutcome out;

  // A fresh stack per run: the three drivers see byte-identical clones
  // of the same simulated world. Each rank writes the pattern from its
  // own buffer and reads back into separate storage.
  core::SimStack stack(stack_config_for(scenario));
  const auto n = static_cast<std::size_t>(scenario.nranks);
  std::vector<std::vector<std::byte>> written(n);
  std::vector<std::vector<std::byte>> read_back(n);
  const auto plan_over = [&](std::vector<std::vector<std::byte>>& storage,
                             int rank) {
    std::vector<util::Extent> extents = scenario.rank_extents(rank);
    std::uint64_t bytes = 0;
    for (const util::Extent& e : extents) bytes += e.len;
    std::vector<std::byte>& buf = storage[static_cast<std::size_t>(rank)];
    buf.resize(bytes);
    return io::AccessPlan(util::ExtentList::normalize(std::move(extents)),
                          util::Payload::of(buf));
  };

  pfs::FileHandle handle = -1;
  try {
    handle = core::run_write_read(
                 stack, kind, mccio_config_for(scenario),
                 hints_for(scenario, kind), scenario.nranks,
                 [&](int rank, int) {
                   io::AccessPlan plan = plan_over(written, rank);
                   workloads::fill_pattern(plan, scenario.pattern_seed);
                   return plan;
                 },
                 [&](int rank, int) { return plan_over(read_back, rank); })
                 .file;
    out.completed = true;
  } catch (const std::exception& e) {
    out.error = e.what();
  }

  const verify::Auditor& audit = *stack.auditor();
  const bool tolerate_duplicates = scenario.has_cross_rank_overlap();
  for (const verify::Finding& f : audit.findings()) {
    if (tolerate_duplicates && f.kind == "byte-duplicate") {
      ++out.tolerated_duplicates;
      continue;
    }
    out.findings.push_back(f);
  }
  out.counters = audit.counters();

  if (out.completed) {
    MCIO_CHECK_GE(handle, 0);
    out.file_hash = stack.fs().content_hash(handle);
    std::uint64_t rh = kFnvOffset;
    for (const std::vector<std::byte>& buf : read_back) {
      const std::uint64_t h = fnv1a(kFnvOffset, buf.data(), buf.size());
      for (int b = 0; b < 64; b += 8) {
        rh ^= (h >> b) & 0xff;
        rh *= kFnvPrime;
      }
    }
    out.read_hash = rh;

    std::string err;
    out.pattern_ok = workloads::verify_store(
        stack.fs().store(handle), scenario.all_extents(),
        scenario.pattern_seed, &err);
    out.pattern_error = err;
  }
  return out;
}

DiffResult run_differential(const Scenario& scenario) {
  DiffResult result;
  result.scenario = scenario;
  for (const DriverKind kind : {DriverKind::kMccio, DriverKind::kTwoPhase,
                                DriverKind::kIndependent}) {
    result.runs[static_cast<int>(kind)] = run_scenario(scenario, kind);
  }
  return result;
}

bool DiffResult::ok() const {
  const RunOutcome& ref = run(DriverKind::kTwoPhase);
  for (const RunOutcome& r : runs) {
    if (!r.completed || !r.findings.empty() || !r.pattern_ok) return false;
    if (r.file_hash != ref.file_hash || r.read_hash != ref.read_hash) {
      return false;
    }
  }
  return true;
}

std::string DiffResult::classify() const {
  for (int i = 0; i < 3; ++i) {
    const RunOutcome& r = runs[i];
    const char* name = core::driver_name(static_cast<DriverKind>(i));
    if (!r.completed) {
      return std::string("exception:") + name;
    }
    if (!r.findings.empty()) {
      return std::string("findings:") + name + ":" + r.findings[0].kind;
    }
  }
  const RunOutcome& ref = run(DriverKind::kTwoPhase);
  for (int i = 0; i < 3; ++i) {
    if (runs[i].file_hash != ref.file_hash) return "file-hash-mismatch";
  }
  for (int i = 0; i < 3; ++i) {
    if (runs[i].read_hash != ref.read_hash) return "read-hash-mismatch";
  }
  for (int i = 0; i < 3; ++i) {
    if (!runs[i].pattern_ok) {
      return std::string("pattern-mismatch:") +
             core::driver_name(static_cast<DriverKind>(i));
    }
  }
  return "ok";
}

std::string DiffResult::describe() const {
  if (ok()) return "";
  std::ostringstream os;
  os << "differential failure (" << classify() << ") on seed "
     << scenario.gen_seed << " case " << scenario.gen_case << " ("
     << pattern_kind_name(scenario.kind) << ", " << scenario.nranks
     << " ranks on " << scenario.nodes << "x" << scenario.ranks_per_node
     << ", " << scenario.total_bytes() << " bytes)\n";
  for (int i = 0; i < 3; ++i) {
    const RunOutcome& r = runs[i];
    os << "  " << core::driver_name(static_cast<DriverKind>(i)) << ": ";
    if (!r.completed) {
      os << "exception: " << r.error << "\n";
      continue;
    }
    os << "file=" << std::hex << r.file_hash << " read=" << r.read_hash
       << std::dec;
    if (!r.pattern_ok) os << " pattern: " << r.pattern_error;
    if (r.tolerated_duplicates > 0) {
      os << " (tolerated " << r.tolerated_duplicates
         << " overlap duplicates)";
    }
    os << "\n";
    for (const verify::Finding& f : r.findings) {
      os << "    finding " << f.kind << ": " << f.message << "\n";
    }
  }
  return os.str();
}

}  // namespace mcio::fuzz
