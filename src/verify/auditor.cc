#include "verify/auditor.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "util/check.h"

namespace mcio::verify {

namespace {

/// The (offset, len) order of util::ExtentList::normalize.
bool by_offset_then_len(const util::Extent& x, const util::Extent& y) {
  return x.offset != y.offset ? x.offset < y.offset : x.len < y.len;
}

/// Set difference a − b over normalized lists; O(|a| + |b|).
util::ExtentList subtract(const util::ExtentList& a,
                          const util::ExtentList& b) {
  std::vector<util::Extent> out;
  const auto& cuts = b.runs();
  std::size_t j = 0;
  for (const util::Extent& run : a.runs()) {
    std::uint64_t pos = run.offset;
    const std::uint64_t end = run.end();
    while (j < cuts.size() && cuts[j].end() <= pos) ++j;
    std::size_t k = j;
    while (pos < end && k < cuts.size() && cuts[k].offset < end) {
      if (cuts[k].offset > pos) out.push_back({pos, cuts[k].offset - pos});
      pos = std::max(pos, cuts[k].end());
      ++k;
    }
    if (pos < end) out.push_back({pos, end - pos});
  }
  return util::ExtentList::normalize(std::move(out));
}

/// Union of P normalized lists holding N runs in all, consuming them, by
/// a pairwise tree of linear merges: O(N log P). Merging file neighbours
/// first lets plans that tile the file coalesce at the first levels,
/// which makes the common case close to O(N).
util::ExtentList union_of(std::vector<util::ExtentList>* lists) {
  std::sort(lists->begin(), lists->end(),
            [](const util::ExtentList& a, const util::ExtentList& b) {
              return a.bounds().offset < b.bounds().offset;
            });
  for (std::size_t step = 1; step < lists->size(); step *= 2) {
    for (std::size_t i = 0; i + step < lists->size(); i += 2 * step) {
      (*lists)[i].merge((*lists)[i + step]);
      (*lists)[i + step] = {};
    }
  }
  return lists->empty() ? util::ExtentList{} : std::move(lists->front());
}

/// Byte ranges (up to `max_overlaps`) covered by more than one extent of
/// `raw`, which it sorts in place.
std::vector<util::Extent> overlaps_of(std::vector<util::Extent>* raw,
                                      std::size_t max_overlaps) {
  if (!std::is_sorted(raw->begin(), raw->end(), by_offset_then_len)) {
    std::sort(raw->begin(), raw->end(), by_offset_then_len);
  }
  std::vector<util::Extent> overlaps;
  std::uint64_t cover_end = 0;
  bool any = false;
  for (const util::Extent& e : *raw) {
    if (e.empty()) continue;
    if (any && e.offset < cover_end && overlaps.size() < max_overlaps) {
      overlaps.push_back({e.offset, std::min(cover_end, e.end()) - e.offset});
    }
    cover_end = any ? std::max(cover_end, e.end()) : e.end();
    any = true;
  }
  return overlaps;
}

/// "N B in [a,b) [c,d) ..." — at most `max_runs` runs spelled out.
std::string describe_extents(const util::ExtentList& list,
                             std::size_t max_runs = 4) {
  std::ostringstream os;
  os << list.total_bytes() << " B in";
  const auto& runs = list.runs();
  for (std::size_t i = 0; i < runs.size() && i < max_runs; ++i) {
    os << " [" << runs[i].offset << "," << runs[i].end() << ")";
  }
  if (runs.size() > max_runs) {
    os << " ... (" << runs.size() << " runs total)";
  }
  return os.str();
}

const char* dir_name(bool is_write) { return is_write ? "write" : "read"; }

}  // namespace

thread_local int Auditor::tl_cur_actor_ = -1;

Auditor::Auditor() = default;
Auditor::~Auditor() = default;

std::string Auditor::report() const {
  std::ostringstream os;
  for (const Finding& f : findings_) {
    os << "  [" << f.kind << "] " << f.message << '\n';
  }
  return os.str();
}

void Auditor::add_finding(std::string kind, std::string message) {
  ++counters_.findings;
  findings_.push_back({std::move(kind), std::move(message)});
}

void Auditor::on_engine_start(int num_actors) {
  const util::MutexLock lock(hook_mu_);
  const auto n = static_cast<std::size_t>(num_actors);
  last_clock_.assign(n, 0.0);
  waits_.assign(n, WaitInfo{});
  tl_cur_actor_ = -1;
}

void Auditor::check_clock(int actor, double clock, const char* verb) {
  const auto i = static_cast<std::size_t>(actor);
  if (i >= last_clock_.size()) last_clock_.resize(i + 1, 0.0);
  if (clock < last_clock_[i]) {
    std::ostringstream os;
    os << "rank " << actor << ' ' << verb << " at clock " << clock
       << " after reaching " << last_clock_[i]
       << " — virtual time moved backwards";
    add_finding("time-regression", os.str());
  }
  last_clock_[i] = clock;
}

void Auditor::on_actor_resumed(int actor, double clock) {
  const util::MutexLock lock(hook_mu_);
  ++counters_.slices;
  tl_cur_actor_ = actor;
  check_clock(actor, clock, "resumed");
}

void Auditor::on_actor_yielded(int actor, double clock) {
  const util::MutexLock lock(hook_mu_);
  tl_cur_actor_ = -1;
  check_clock(actor, clock, "yielded");
}

std::string Auditor::describe_deadlock(std::span<const int> stuck) {
  const util::MutexLock lock(hook_mu_);
  std::ostringstream os;
  os << "\naudit: blocked fibers:";
  for (const int a : stuck) {
    os << "\n  rank " << a << ": ";
    const auto i = static_cast<std::size_t>(a);
    if (i < waits_.size() && waits_[i].waiting) {
      const WaitInfo& w = waits_[i];
      os << "blocked in recv(src=" << w.src_world << ", tag=" << w.tag
         << ", comm=" << w.comm_id << ")";
    } else {
      os << "parked outside a recorded wait";
    }
  }

  // Wait-for cycle: each blocked rank waits on one source, so it has
  // exactly one outgoing edge and the graph is functional — walk each
  // chain once with a global visit mark.
  std::map<int, int> edge;
  for (const int a : stuck) {
    const auto i = static_cast<std::size_t>(a);
    if (i < waits_.size() && waits_[i].waiting) {
      edge[a] = waits_[i].src_world;
    }
  }
  std::map<int, int> visited;  // rank -> walk id
  int walk = 0;
  for (const int start : stuck) {
    if (edge.find(start) == edge.end() || visited.count(start) != 0) {
      continue;
    }
    ++walk;
    std::vector<int> path;
    int node = start;
    while (edge.count(node) != 0 && visited.count(node) == 0) {
      visited[node] = walk;
      path.push_back(node);
      node = edge[node];
    }
    if (visited.count(node) != 0 && visited[node] == walk) {
      os << "\naudit: wait-for cycle:";
      const auto head =
          std::find(path.begin(), path.end(), node) - path.begin();
      for (std::size_t p = static_cast<std::size_t>(head); p < path.size();
           ++p) {
        os << " rank " << path[p] << " ->";
      }
      os << " rank " << node;
      break;
    }
  }

  // Held resources: outstanding lease bytes per node.
  std::map<int, std::int64_t> per_node;
  for (const auto& [key, bytes] : ledger_) {
    if (bytes != 0) per_node[key.second] += bytes;
  }
  if (!per_node.empty()) {
    os << "\naudit: outstanding memory leases:";
    for (const auto& [node, bytes] : per_node) {
      os << " node " << node << "=" << bytes << " B";
    }
  }

  if (deferred_) {
    std::ostringstream msg;
    msg << stuck.size() << " blocked fiber(s);" << os.str();
    add_finding("deadlock", msg.str());
  }
  return os.str();
}

void Auditor::on_message_delivered(std::uint64_t comm_id, int src,
                                   int dst_world, int tag,
                                   std::uint64_t bytes, bool matched) {
  (void)comm_id;
  (void)src;
  (void)dst_world;
  (void)tag;
  (void)bytes;
  const util::MutexLock lock(hook_mu_);
  ++counters_.messages;
  if (!matched) ++counters_.unexpected;
}

void Auditor::on_wait_begin(int actor, std::uint64_t comm_id, int src_world,
                            int tag) {
  const util::MutexLock lock(hook_mu_);
  ++counters_.waits;
  const auto i = static_cast<std::size_t>(actor);
  if (i >= waits_.size()) waits_.resize(i + 1);
  waits_[i] = WaitInfo{true, comm_id, src_world, tag};
}

void Auditor::on_wait_end(int actor) {
  const util::MutexLock lock(hook_mu_);
  const auto i = static_cast<std::size_t>(actor);
  if (i < waits_.size()) waits_[i].waiting = false;
}

void Auditor::on_orphan_message(int dst_world, std::uint64_t comm_id,
                                int src, int tag, std::uint64_t bytes) {
  const util::MutexLock lock(hook_mu_);
  std::ostringstream os;
  os << "message src rank " << src << " -> dst rank " << dst_world
     << " (comm " << comm_id << ", tag " << tag << ", " << bytes
     << " B) was delivered but never received";
  add_finding("orphan-message", os.str());
}

void Auditor::on_orphan_recv(int dst_world, std::uint64_t comm_id, int src,
                             int tag) {
  const util::MutexLock lock(hook_mu_);
  std::ostringstream os;
  os << "rank " << dst_world << " posted recv(src=" << src << ", tag=" << tag
     << ", comm " << comm_id << ") that no message ever matched";
  add_finding("orphan-recv", os.str());
}

void Auditor::on_orphan_plan(std::uint64_t comm_id, std::uint64_t seq,
                             int taken, int takers) {
  const util::MutexLock lock(hook_mu_);
  std::ostringstream os;
  os << "shared plan of collective #" << seq << " on comm " << comm_id
     << " was taken by only " << taken << " of its " << takers << " ranks";
  add_finding("orphan-plan", os.str());
}

void Auditor::on_plan_taken(std::uint64_t comm_id, std::uint64_t seq,
                            int rank, std::uint64_t plan_key,
                            std::uint64_t rank_key, bool live_reads_agree) {
  if (plan_key == rank_key && live_reads_agree) return;
  const util::MutexLock lock(hook_mu_);
  std::ostringstream os;
  os << "rank " << rank << " took the shared plan of collective #" << seq
     << " on comm " << comm_id << " but ";
  if (plan_key != rank_key) {
    os << "its planner inputs hash to " << rank_key
       << " where the plan was built from " << plan_key;
  } else {
    os << "re-asking the plan's donor elections gave a different answer";
  }
  add_finding("plan-divergence", os.str());
}

int Auditor::mgr_id(const void* mgr) {
  for (std::size_t i = 0; i < mgr_slots_.size(); ++i) {
    if (mgr_slots_[i] == mgr) return static_cast<int>(i);
  }
  mgr_slots_.push_back(mgr);
  return static_cast<int>(mgr_slots_.size() - 1);
}

void Auditor::on_lease_grant(const void* mgr, int node,
                             std::uint64_t bytes) {
  const util::MutexLock lock(hook_mu_);
  ++counters_.lease_grants;
  const int id = mgr_id(mgr);
  ledger_[{id, node}] += static_cast<std::int64_t>(bytes);
  if (Epoch* ep = innermost_epoch(tl_cur_actor_)) {
    auto& [balance, grants] = ep->leases[{id, node}];
    balance += static_cast<std::int64_t>(bytes);
    ++grants;
  }
}

void Auditor::on_lease_release(const void* mgr, int node,
                               std::uint64_t bytes) {
  const util::MutexLock lock(hook_mu_);
  ++counters_.lease_releases;
  const int id = mgr_id(mgr);
  ledger_[{id, node}] -= static_cast<std::int64_t>(bytes);
  if (Epoch* ep = innermost_epoch(tl_cur_actor_)) {
    ep->leases[{id, node}].first -= static_cast<std::int64_t>(bytes);
  }
}

void Auditor::on_manager_destroyed(const void* mgr) {
  const util::MutexLock lock(hook_mu_);
  for (std::size_t i = 0; i < mgr_slots_.size(); ++i) {
    if (mgr_slots_[i] != mgr) continue;
    const int id = static_cast<int>(i);
    // Clear the slot (a reused address gets a fresh id) and drop the
    // manager's ledger balances.
    mgr_slots_[i] = nullptr;
    for (auto it = ledger_.begin(); it != ledger_.end();) {
      if (it->first.first == id) {
        it = ledger_.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void Auditor::on_pfs_write(const void* fs, int file, std::uint64_t offset,
                           std::uint64_t len) {
  const util::MutexLock lock(hook_mu_);
  ++counters_.pfs_writes;
  counters_.pfs_bytes_written += len;
  if (Epoch* ep = epoch_for(tl_cur_actor_, fs, file)) {
    if (ep->is_write) ep->written.push_back({offset, len});
  }
}

void Auditor::on_pfs_read(const void* fs, int file, std::uint64_t offset,
                          std::uint64_t len) {
  const util::MutexLock lock(hook_mu_);
  ++counters_.pfs_reads;
  counters_.pfs_bytes_read += len;
  if (Epoch* ep = epoch_for(tl_cur_actor_, fs, file)) {
    ep->preread.push_back({offset, len});
  }
}

void Auditor::on_pfs_destroyed(const void* fs) {
  const util::MutexLock lock(hook_mu_);
  for (auto it = keys_.begin(); it != keys_.end();) {
    if (it->first.fs == fs) {
      it = keys_.erase(it);
    } else {
      ++it;
    }
  }
}

void Auditor::on_collective_begin(const void* fs, int file, bool is_write,
                                  int participants, int rank,
                                  std::span<const util::Extent> extents) {
  const util::MutexLock lock(hook_mu_);
  KeyState& ks = keys_[EpochKey{fs, file, is_write}];
  const std::uint64_t seq = ks.begun_by_rank[rank]++;
  if (seq < ks.base_seq) {
    // A closed epoch this rank never joined: its begin count was behind
    // when the epoch's other participants all finished. close_epoch
    // already reported the imbalance; resynchronize.
    ks.begun_by_rank[rank] = ks.base_seq + 1;
  }
  const auto idx = static_cast<std::size_t>(
      std::max<std::uint64_t>(seq, ks.base_seq) - ks.base_seq);
  while (ks.open.size() <= idx) {
    auto ep = std::make_shared<Epoch>();
    ep->fs = fs;
    ep->file = file;
    ep->is_write = is_write;
    ep->seq = ks.base_seq + ks.open.size();
    ep->participants = participants;
    ks.open.push_back(std::move(ep));
  }
  const std::shared_ptr<Epoch>& ep = ks.open[idx];
  ++ep->begun;
  // One exactly sized copy per rank; normalize is linear on the sorted
  // plans ranks submit and sorts an unsorted one alone.
  ep->plans.push_back(
      util::ExtentList::normalize({extents.begin(), extents.end()}));
  const auto r = static_cast<std::size_t>(rank);
  if (r >= stacks_.size()) stacks_.resize(r + 1);
  stacks_[r].push_back(ep);
}

void Auditor::on_collective_end(const void* fs, int file, bool is_write,
                                int rank) {
  const util::MutexLock lock(hook_mu_);
  const auto r = static_cast<std::size_t>(rank);
  std::shared_ptr<Epoch> ep;
  if (r < stacks_.size()) {
    auto& stack = stacks_[r];
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      if ((*it)->fs == fs && (*it)->file == file &&
          (*it)->is_write == is_write) {
        ep = *it;
        stack.erase(std::next(it).base());
        break;
      }
    }
  }
  if (!ep) return;  // unmatched end; begin side was never observed
  ++ep->ended;

  auto key_it = keys_.find(EpochKey{fs, file, is_write});
  if (key_it == keys_.end()) return;
  KeyState& ks = key_it->second;
  // Close fully-ended epochs from the front so seq stays contiguous.
  while (!ks.open.empty() &&
         ks.open.front()->ended >= ks.open.front()->participants) {
    close_epoch(*ks.open.front());
    ks.open.erase(ks.open.begin());
    ++ks.base_seq;
  }
}

void Auditor::close_epoch(Epoch& ep) {
  ++counters_.collectives;

  std::ostringstream where;
  where << "collective " << dir_name(ep.is_write) << " #" << ep.seq
        << " on file " << ep.file;

  if (ep.begun != ep.participants) {
    std::ostringstream os;
    os << where.str() << ": " << ep.begun << " of " << ep.participants
       << " participants entered";
    add_finding("collective-incomplete", os.str());
  }

  // Lease ledger: every grant made inside the epoch must be released by
  // its end, per (manager, node).
  for (const auto& [key, bal] : ep.leases) {
    const auto [balance, grants] = bal;
    if (balance > 0) {
      std::ostringstream os;
      os << where.str() << ": node " << key.second << " still holds "
         << balance << " B of memory lease across " << grants
         << " grant(s) at collective end";
      add_finding("lease-leak", os.str());
    } else if (balance < 0) {
      std::ostringstream os;
      os << where.str() << ": node " << key.second << " released "
         << -balance << " B more than it was granted inside the collective";
      add_finding("lease-leak", os.str());
    }
  }

  const util::ExtentList planned = union_of(&ep.plans);
  if (ep.is_write) {
    std::vector<util::Extent> dup = overlaps_of(&ep.written, 4);
    const util::ExtentList written =
        util::ExtentList::normalize(std::move(ep.written));
    if (!dup.empty()) {
      util::ExtentList dups = util::ExtentList::normalize(std::move(dup));
      std::ostringstream os;
      os << where.str() << ": bytes written more than once: "
         << describe_extents(dups);
      add_finding("byte-duplicate", os.str());
    }
    const util::ExtentList missing = subtract(planned, written);
    if (!missing.empty()) {
      std::ostringstream os;
      os << where.str() << ": planned bytes never reached the PFS: "
         << describe_extents(missing);
      add_finding("byte-loss", os.str());
    }
    const util::ExtentList preread =
        util::ExtentList::normalize(std::move(ep.preread));
    const util::ExtentList unplanned =
        subtract(subtract(written, planned), preread);
    if (!unplanned.empty()) {
      std::ostringstream os;
      os << where.str()
         << ": bytes written that no rank planned and no read-modify-write "
            "pre-read: "
         << describe_extents(unplanned);
      add_finding("unplanned-write", os.str());
    }
  } else {
    const util::ExtentList read =
        util::ExtentList::normalize(std::move(ep.preread));
    const util::ExtentList missing = subtract(planned, read);
    if (!missing.empty()) {
      std::ostringstream os;
      os << where.str() << ": planned bytes never read from the PFS: "
         << describe_extents(missing);
      add_finding("read-loss", os.str());
    }
  }
}

Auditor::Epoch* Auditor::epoch_for(int actor, const void* fs,
                                   int file) const {
  if (actor < 0) return nullptr;
  const auto r = static_cast<std::size_t>(actor);
  if (r >= stacks_.size()) return nullptr;
  const auto& stack = stacks_[r];
  for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
    if ((*it)->fs == fs && (*it)->file == file) return it->get();
  }
  return nullptr;
}

Auditor::Epoch* Auditor::innermost_epoch(int actor) const {
  if (actor < 0) return nullptr;
  const auto r = static_cast<std::size_t>(actor);
  if (r >= stacks_.size() || stacks_[r].empty()) return nullptr;
  return stacks_[r].back().get();
}

void Auditor::reset_transient() {
  tl_cur_actor_ = -1;
  for (auto& w : waits_) w.waiting = false;
  for (auto& s : stacks_) s.clear();
  keys_.clear();
}

void Auditor::on_run_end() {
  const util::MutexLock lock(hook_mu_);
  ++counters_.runs;
  for (std::size_t r = 0; r < stacks_.size(); ++r) {
    if (!stacks_[r].empty()) {
      std::ostringstream os;
      os << "rank " << r << " finished the run inside "
         << stacks_[r].size() << " unclosed collective(s) (innermost: "
         << dir_name(stacks_[r].back()->is_write) << " #"
         << stacks_[r].back()->seq << " on file "
         << stacks_[r].back()->file << ")";
      add_finding("collective-incomplete", os.str());
    }
  }
  reset_transient();
  if (!deferred_ && !findings_.empty()) {
    std::ostringstream os;
    os << "simulation audit failed with " << findings_.size()
       << " finding(s):\n"
       << report();
    findings_.clear();
    throw util::Error(os.str());
  }
}

void Auditor::on_run_aborted() {
  const util::MutexLock lock(hook_mu_);
  reset_transient();
  if (!deferred_) findings_.clear();
}

void Auditor::absorb_counters(const AuditCounters& other) {
  const util::MutexLock lock(hook_mu_);
  counters_.runs += other.runs;
  counters_.slices += other.slices;
  counters_.messages += other.messages;
  counters_.unexpected += other.unexpected;
  counters_.waits += other.waits;
  counters_.lease_grants += other.lease_grants;
  counters_.lease_releases += other.lease_releases;
  counters_.pfs_writes += other.pfs_writes;
  counters_.pfs_reads += other.pfs_reads;
  counters_.pfs_bytes_written += other.pfs_bytes_written;
  counters_.pfs_bytes_read += other.pfs_bytes_read;
  counters_.collectives += other.collectives;
  counters_.findings += other.findings;
}

Auditor& global_auditor() {
  static Auditor auditor;
  return auditor;
}

namespace {
Observer*& observer_slot() {
  static Observer* slot = &global_auditor();
  return slot;
}
}  // namespace

Observer* global_observer() { return observer_slot(); }

void set_global_observer(Observer* observer) { observer_slot() = observer; }

bool global_audit_active() { return observer_slot() == &global_auditor(); }

Observer& noop_observer() {
  static Observer noop;
  return noop;
}

}  // namespace mcio::verify
