#include "io/exchange.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <type_traits>

#ifdef MCIO_FUZZ_BUG
#include <cstdlib>
#endif

#include "io/independent.h"
#include "util/check.h"
#include "util/rng.h"

namespace mcio::io {

#ifdef MCIO_FUZZ_BUG
namespace {

// Oracle self-test fault (compiled only with -DMCIO_FUZZ_BUG=ON, armed
// only when MCIO_FUZZ_BUG_SEED is set): deterministically swaps one
// adjacent byte pair in each packed exchange window on the client send
// path. Both collective drivers share this path, so the differential
// oracle must flag them against the independent baseline and against the
// absolute pattern check — see tools/fuzz_driver --expect-failure and the
// CI fuzz job's negative test.
bool fuzz_bug_seed(std::uint64_t* seed) {
  static const char* env = std::getenv("MCIO_FUZZ_BUG_SEED");
  if (env == nullptr || *env == '\0') return false;
  *seed = std::strtoull(env, nullptr, 10);
  return true;
}

void fuzz_bug_corrupt(std::byte* data, std::uint64_t len,
                      std::uint64_t window_offset) {
  std::uint64_t seed = 0;
  if (data == nullptr || len < 2 || !fuzz_bug_seed(&seed)) return;
  // splitmix64-style mix of (seed, window) — pure, so replays are exact.
  std::uint64_t h = seed ^ (window_offset + 0x9e3779b97f4a7c15ULL);
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  h ^= h >> 31;
  const std::uint64_t p = h % (len - 1);
  std::swap(data[p], data[p + 1]);
}

}  // namespace
#endif  // MCIO_FUZZ_BUG

using util::ConstPayload;
using util::Extent;
using util::ExtentList;
using util::Payload;
using util::Piece;
using util::PieceCursor;

void ExchangePlan::validate(int comm_size) const {
  MCIO_CHECK_EQ(rank_bounds.size(), static_cast<std::size_t>(comm_size));
  for (std::size_t i = 0; i < independent_ranks.size(); ++i) {
    const int r = independent_ranks[i];
    MCIO_CHECK_GE(r, 0);
    MCIO_CHECK_LT(r, comm_size);
    MCIO_CHECK_MSG(rank_bounds[static_cast<std::size_t>(r)].empty(),
                   "independent-fallback rank " << r
                       << " still has exchange bounds");
    if (i > 0) MCIO_CHECK_LT(independent_ranks[i - 1], r);
  }
  for (std::size_t i = 0; i < domains.size(); ++i) {
    const FileDomain& d = domains[i];
    MCIO_CHECK_MSG(!d.extent.empty(), "empty file domain " << i);
    MCIO_CHECK_GE(d.aggregator, 0);
    MCIO_CHECK_LT(d.aggregator, comm_size);
    MCIO_CHECK_GT(d.buffer_bytes, 0u);
    if (i > 0) {
      MCIO_CHECK_MSG(domains[i - 1].extent.end() <= d.extent.offset,
                     "file domains unsorted or overlapping at " << i);
    }
  }
}

template <typename Emit>
RouteTable::Rows RouteTable::bucket(int rows, const Emit& emit) {
  Rows out;
  out.offsets.assign(rows + 1, 0);
  emit([&](int row, int) { ++out.offsets[row + 1]; });
  std::partial_sum(out.offsets.begin(), out.offsets.end(),
                   out.offsets.begin());
  out.items.resize(out.offsets.back());
  std::vector<int> next(out.offsets.begin(), out.offsets.end() - 1);
  emit([&](int row, int item) { out.items[next[row]++] = item; });
  return out;
}

RouteTable RouteTable::derive(const ExchangePlan& plan,
                              const std::vector<int>& nodes,
                              bool node_leaders) {
  const std::vector<FileDomain>& domains = plan.domains;
  const auto nranks = static_cast<int>(plan.rank_bounds.size());
  const auto ndomains = static_cast<int>(domains.size());
  MCIO_CHECK_EQ(nodes.size(), plan.rank_bounds.size());
  RouteTable t;
  t.hier_ = node_leaders && nranks > 1;
  // The domains ending after a rank's bounds start are a suffix, those
  // starting before its bounds end a prefix; it meets their overlap.
  t.clients_.reserve(plan.rank_bounds.size());
  for (const Extent& b : plan.rank_bounds) {
    if (b.empty()) {
      t.clients_.emplace_back(0, 0);
      continue;
    }
    const auto first = std::partition_point(
        domains.begin(), domains.end(),
        [&](const FileDomain& d) { return d.extent.end() <= b.offset; });
    const auto last = std::partition_point(
        first, domains.end(),
        [&](const FileDomain& d) { return d.extent.offset < b.end(); });
    t.clients_.emplace_back(first - domains.begin(), last - domains.begin());
  }
  t.owned_ = bucket(nranks, [&](const auto& push) {
    for (int i = 0; i < ndomains; ++i) push(domains[i].aggregator, i);
  });
  if (!t.hier_) {
    t.sources_ = bucket(ndomains, [&](const auto& push) {
      for (int r = 0; r < nranks; ++r) {
        for (int i = t.clients_[r].first; i < t.clients_[r].second; ++i) {
          push(i, r);
        }
      }
    });
    return t;
  }
  // A node's lowest data rank leads it. Independent-fallback and idle
  // ranks (empty bounds) stay outside the hierarchy, so a node without
  // data has no leader, though any rank may still aggregate.
  std::vector<int> lead_of_node(std::ranges::max(nodes) + 1, -1);
  t.leader_.assign(nranks, -1);
  for (int r = 0; r < nranks; ++r) {
    if (plan.rank_bounds[r].empty()) continue;
    int& lead = lead_of_node[nodes[r]];
    if (lead < 0) lead = r;
    t.leader_[r] = lead;
  }
  t.members_ = bucket(nranks, [&](const auto& push) {
    for (int r = 0; r < nranks; ++r) {
      if (t.leader_[r] >= 0) push(t.leader_[r], r);
    }
  });
  // A leader's node domains are the union of its members' ranges.
  std::vector<std::pair<int, int>> ranges;
  t.node_domains_ = bucket(nranks, [&](const auto& push) {
    for (int l = 0; l < nranks; ++l) {
      ranges.clear();
      for (const int m : t.members(l)) ranges.push_back(t.clients_[m]);
      std::sort(ranges.begin(), ranges.end());
      int next = 0;
      for (const auto& [first, last] : ranges) {
        for (int i = std::max(first, next); i < last; ++i) push(l, i);
        next = std::max(next, last);
      }
    }
  });
  t.sources_ = bucket(ndomains, [&](const auto& push) {
    for (int l = 0; l < nranks; ++l) {
      for (const int i : t.node_domains(l)) push(i, l);
    }
  });
  return t;
}

PlanKey::PlanKey(const CollContext& ctx, const char* driver) {
  for (const char* c = driver; *c != '\0'; ++c) {
    add(static_cast<unsigned char>(*c));
  }
  add(ctx.fs->config().stripe_unit);
  add(static_cast<std::uint64_t>(ctx.comm->size()));
  add(ctx.memory->fault_plan() != nullptr ? 1 : 0);
  add(ctx.hints.cb_node_leaders ? 1 : 0);
}

PlanKey& PlanKey::add(std::uint64_t v) {
  std::uint64_t state = h_ ^ v;
  h_ = util::splitmix64(state);
  return *this;
}

std::shared_ptr<const ExchangePlan> share_exchange_plan(
    CollContext& ctx, std::uint64_t rank_key,
    const std::function<ExchangePlan()>& build) {
  mpi::Comm& comm = *ctx.comm;
  const mpi::SharedPlan shared = comm.share_plan(rank_key, [&] {
    auto built = std::make_shared<ExchangePlan>(build());
    built->validate(comm.size());
    built->routes = RouteTable::derive(*built, comm.nodes(),
                                       ctx.hints.cb_node_leaders);
    return std::shared_ptr<const void>(std::move(built));
  });
  auto xplan = std::static_pointer_cast<const ExchangePlan>(shared.plan);
  verify::Observer* obs = ctx.rank->machine().observer();
  bool live_reads_agree = true;
  if (obs != &verify::noop_observer()) {
    // Audit mode: this rank re-asks every donor election the rescue
    // relied on, as the per-rank planner of an MPI process would have.
    for (const DonorElection& e : xplan->donor_elections) {
      if (ctx.memory->elect_donor(e.borrower, e.bytes, e.reserve) < 0) {
        live_reads_agree = false;
      }
    }
  }
  obs->on_plan_taken(comm.id(), shared.seq, ctx.rank->rank(),
                     shared.key, rank_key, live_reads_agree);
  return xplan;
}

TwoPhaseExchange::TwoPhaseExchange(CollContext& ctx, const AccessPlan& plan,
                                   std::shared_ptr<const ExchangePlan> xplan)
    : ctx_(ctx),
      plan_(plan),
      xplan_(std::move(xplan)),
      stats_(ctx.stats ? *ctx.stats : discard_) {
  MCIO_CHECK(ctx_.comm != nullptr);
  MCIO_CHECK(ctx_.fs != nullptr);
  MCIO_CHECK(ctx_.memory != nullptr);
  MCIO_CHECK(xplan_ != nullptr);
  const RouteTable& routes = xplan_->routes;
  MCIO_CHECK_EQ(routes.ranks(), ctx_.comm->size());
  // The MemoryManager and the routes are shared by every rank, so all
  // ranks agree on the protocol variant and the path, and reserve the
  // same tags below. With node leaders off the node family reserves
  // nothing and the flat tag sequence is untouched.
  degraded_ = ctx_.memory->faults_enabled();
  independent_ = std::binary_search(xplan_->independent_ranks.begin(),
                                    xplan_->independent_ranks.end(),
                                    ctx_.comm->rank());
  const int tag_span =
      std::max<int>(1, static_cast<int>(xplan_->domains.size()));
  tags_.lists = ctx_.comm->reserve_tags(1);
  if (degraded_) tags_.wsize = ctx_.comm->reserve_tags(1);
  tags_.data = ctx_.comm->reserve_tags(tag_span);
  const bool hier = routes.hierarchical();
  if (hier) {
    node_tags_.lists = ctx_.comm->reserve_tags(1);
    if (degraded_) node_tags_.wsize = ctx_.comm->reserve_tags(1);
    node_tags_.data = ctx_.comm->reserve_tags(tag_span);
  }

  // A node leader ships nothing upstream as a client: its own bytes fold
  // into its node hubs, whose sources include it.
  const int me = my_rank();
  const int leader = hier ? routes.leader(me) : -1;
  const auto [first, last] = routes.client_domains(me);
  if (leader != me) {
    links_.reserve(static_cast<std::size_t>(last - first));
    for (int i = first; i < last; ++i) {
      const FileDomain& d = domain(i);
      links_.push_back(
          hier ? Link{i, leader, mpi::Channel::kShm, d.buffer_bytes}
               : Link{i, d.aggregator, mpi::Channel::kTransport,
                      d.buffer_bytes});
    }
  } else {
    for (const int i : routes.node_domains(me)) {
      node_hubs_.push_back(Hub{i, domain(i).buffer_bytes, {}});
    }
  }
  for (const int i : routes.owned(me)) {
    owned_.push_back(Hub{i, domain(i).buffer_bytes, {}});
    grants_.push_back(BufferGrant{domain(i).buffer_bytes});
  }
}

void TwoPhaseExchange::Sweep::reset(const Hub& hub) {
  sources_.clear();
  active_.clear();
  for (const auto& [s, list] : hub.sources) {
    sources_.push_back(Source{s, util::ExtentCursor(list), {}});
  }
}

bool TwoPhaseExchange::Sweep::clip(const Extent& w) {
  cover_.clear();
  active_.clear();
  for (Source& s : sources_) {
    s.cursor.clipped_into(w, &s.clip);
    if (s.clip.empty()) continue;
    cover_.merge(s.clip);
    active_.push_back(&s);
  }
  return !cover_.empty();
}

int TwoPhaseExchange::my_rank() const { return ctx_.comm->rank(); }

int TwoPhaseExchange::my_node() const {
  return ctx_.comm->node_of(ctx_.comm->rank());
}

sim::Actor& TwoPhaseExchange::actor() { return ctx_.rank->actor(); }

Payload TwoPhaseExchange::staging(std::vector<std::byte>* v,
                                  std::uint64_t n) const {
  if (!xplan_->real_data) return Payload::virtual_bytes(n);
  v->resize(n);
  return Payload::of(*v);
}

// Where a run sits in a buffer holding the file from `base` on, and where
// a piece sits in the plan's buffer: the `at` of util::gather/scatter.
static auto at_file(std::uint64_t base) {
  return [base](const Extent& run) { return run.offset - base; };
}
static std::uint64_t at_plan(const Piece& p) { return p.buf_offset; }

// The extent-list wire: a list's runs as raw Extent records.
static std::span<const std::byte> encode(const ExtentList& list) {
  return std::as_bytes(std::span(list.runs()));
}

static ExtentList decode(const std::vector<std::byte>& bytes) {
  MCIO_CHECK_EQ(bytes.size() % sizeof(Extent), 0u);
  // The blob is a vector's own allocation, aligned for any fundamental
  // type, and holds Extent records: they are copied out in one pass,
  // with no zero-fill of the new vector first.
  static_assert(std::is_trivially_copyable_v<Extent>);
  const auto* first = reinterpret_cast<const Extent*>(bytes.data());
  return ExtentList::normalize(
      std::vector<Extent>(first, first + bytes.size() / sizeof(Extent)));
}

// Serves `bytes` on `queue` from the actor's global time and advances
// the actor to the finish.
static void charge(sim::Actor& actor, sim::BandwidthQueue& queue,
                   std::uint64_t bytes, double bw_scale) {
  actor.sync();
  actor.advance_to(
      queue.serve(actor.now(), static_cast<double>(bytes), bw_scale));
}

void TwoPhaseExchange::charge_copy(int node, std::uint64_t bytes,
                                   double bw_scale) {
  charge(actor(), ctx_.rank->machine().cluster().membus(node), bytes,
         bw_scale);
}

void TwoPhaseExchange::count_msg(int dst, std::uint64_t bytes) {
  stats_.record_msg(my_node(), ctx_.comm->node_of(dst), bytes);
}

void TwoPhaseExchange::send_window_size(int dst, int tag,
                                        std::uint64_t window,
                                        mpi::Channel channel) {
  ctx_.comm->send(
      dst, tag,
      ConstPayload::real(reinterpret_cast<const std::byte*>(&window),
                         sizeof(window)),
      channel);
  count_msg(dst, sizeof(window));
}

std::uint64_t TwoPhaseExchange::recv_window_size(int src, int tag) {
  std::uint64_t window = 0;
  ctx_.comm->recv(src, tag,
                  Payload::real(reinterpret_cast<std::byte*>(&window),
                                sizeof(window)));
  MCIO_CHECK_GT(window, 0u);
  return window;
}

// Virtual seconds between the negotiation's allreduce and the aligned
// start of the data phase. Must exceed the allreduce's own propagation
// skew (µs-scale) so every rank resumes at exactly the same instant; see
// close_negotiation().
static constexpr double kNegotiationCloseSlack = 1e-3;

// The win-sized windows of a domain extent, iterated oldest-offset first:
//   for (Extent w{}; next_window(fd, win, &w);) { ... }
// where `w` must start zero-initialized. Kept as a plain advancing
// function so window iteration allocates nothing. `win` is the planned
// buffer in fault-free runs and the negotiated (possibly shrunk) buffer
// in fault-injected runs — sender and receiver must pass the same value.
static bool next_window(const Extent& fd, std::uint64_t win, Extent* w) {
  const std::uint64_t pos = w->len == 0 ? fd.offset : w->end();
  const std::uint64_t end = fd.end();
  if (pos >= end) return false;
  *w = Extent{pos, std::min<std::uint64_t>(win, end - pos)};
  return true;
}

void TwoPhaseExchange::send_extent_lists() {
  // Links ascend by domain and domains by offset, so one cursor clips
  // them all into one scratch list (each send copies the blob out).
  util::ExtentCursor cursor(plan_.extents);
  ExtentList part;
  for (const Link& link : links_) {
    cursor.clipped_into(domain(link.domain).extent, &part);
    const std::span<const std::byte> blob = encode(part);
    ctx_.comm->send_blob(link.peer, tags_of(link).lists, blob, link.channel);
    count_msg(link.peer, blob.size());
  }
}

void TwoPhaseExchange::leader_collect_extent_lists() {
  const RouteTable& routes = xplan_->routes;
  util::ExtentCursor own(plan_.extents);  // node hubs ascend by offset
  ExtentList merged;  // one hub's union, forwarded and dropped
  for (Hub& hub : node_hubs_) {
    const FileDomain& d = domain(hub.index);
    merged.clear();
    // Per-member FIFO: a member emits its links ascending, and the node
    // domains it touches are exactly its links' domains, so receiving
    // (domain asc, member asc) matches each member's order. The leader's
    // own list is clipped here.
    for (const int m : routes.members(my_rank())) {
      if (!routes.touches(m, hub.index)) continue;
      ExtentList list =
          m == my_rank() ? own.clipped(d.extent)
                         : decode(ctx_.comm->recv_blob(m, node_tags_.lists));
      if (list.empty()) continue;
      merged.merge(list);
      hub.sources.emplace_back(m, std::move(list));
    }
    // Forward the node's union (possibly empty — the aggregator expects
    // one blob per touching node).
    const std::span<const std::byte> blob = encode(merged);
    ctx_.comm->send_blob(d.aggregator, tags_.lists, blob);
    count_msg(d.aggregator, blob.size());
  }
}

void TwoPhaseExchange::recv_extent_lists() {
  // Drain every expected extent-list blob in the canonical (domain,
  // source) order, naming each source. Senders emit their domains in
  // ascending order, so per-source FIFO hands the k-th blob from a source
  // to that source's k-th domain of ours.
  struct Pending {
    Hub* hub;
    mpi::FramedBlob blob;
  };
  std::vector<Pending> pending;
  for (Hub& hub : owned_) {
    for (const int s : xplan_->routes.sources(hub.index)) {
      pending.push_back(
          Pending{&hub, ctx_.comm->recv_blob_deferred(s, tags_.lists)});
    }
  }

  // Replay the receive charges only after the whole drain, in the same
  // order. The drain ends at the last arrival whatever order it waits in,
  // so the clock does not depend on how arrivals interleave. Charging each
  // blob as it is drained would differ: overhead charged before a later
  // arrival is absorbed by the wait for it.
  for (Pending& p : pending) {
    ctx_.comm->charge_blob(p.blob);
    ExtentList list = decode(p.blob.bytes);
    if (!list.empty()) {
      // Sources are visited in ascending order per domain, so appending
      // keeps the hub's sources sorted.
      p.hub->sources.emplace_back(p.blob.source, std::move(list));
    }
  }
}

// A grant's transient reclaim delay, waited out before the lease is used.
static void wait_grant_delay(sim::Actor& actor,
                             metrics::CollectiveStats& stats,
                             double delay_s) {
  if (delay_s <= 0.0) return;
  actor.advance(delay_s);
  stats.record_grant_delay(delay_s);
}

BufferGrant TwoPhaseExchange::acquire_buffer(
    std::uint64_t want, std::uint64_t site, std::uint64_t borrow_want) {
  const int node = my_node();
  std::uint64_t bytes = want;
  const std::uint64_t floor = std::min<std::uint64_t>(
      want, std::max<std::uint64_t>(1, ctx_.hints.fault_shrink_floor));
  double backoff = ctx_.hints.fault_backoff_s;
  int retries = 0;
  std::uint64_t attempt = 0;  // never reset: the plan's per-ladder index
  for (;;) {
    if (attempt >= kFaultAttemptCap) {
      // Rung 1 bound: the schedule has denied kFaultAttemptCap attempts
      // in this ladder run. Give up on local memory instead of retrying
      // until the schedule relents, and drop to the terminal rungs.
      stats_.record_retry_giveup();
      break;
    }
    actor().sync();
    node::LeaseAttempt att = ctx_.memory->try_lease(node, bytes, site,
                                                    attempt++);
    if (att.granted) {
      wait_grant_delay(actor(), stats_, att.delay_s);
      BufferGrant g;
      g.revoke_after = att.lease.revoke_after();
      g.window_bytes = bytes;
      // The probe only settled the terms; drop its accounting so domains
      // hold memory one at a time during processing, like the fault-free
      // protocol.
      att.lease.release();
      return g;
    }
    stats_.record_denial();
    if (retries < kFaultMaxRetries) {
      // Rung 1: back off in virtual time and re-attempt.
      actor().advance(backoff);
      stats_.record_retry(backoff);
      backoff *= 2.0;
      ++retries;
    } else if (bytes > floor) {
      // Rung 3: shrink the buffer and restart the retry budget.
      bytes = std::max(floor, bytes / 2);
      stats_.record_shrink();
      retries = 0;
      backoff = ctx_.hints.fault_backoff_s;
    } else {
      break;  // local ladder bottomed out → terminal rungs
    }
  }
  if (ctx_.hints.borrow_far_memory) {
    // Rung 4: borrow far memory from an elected donor. The borrow first
    // tries to restore the full planned window — the point of paying the
    // fabric is full-size windows with no paging — and settles for the
    // ladder's current (shrunk) size when no donor can back that. A
    // fault-denied draw retries under the same exponential backoff as
    // rung 1 (a remote denial is as transient as a local one), bounded
    // by one kFaultMaxRetries budget shared across both ask sizes so
    // the rung stays O(retries) even when the schedule is hostile.
    std::uint64_t borrow_attempt = 0;
    int borrow_retries = 0;
    double borrow_backoff = ctx_.hints.fault_backoff_s;
    bool fault_denied = false;
    std::uint64_t prev_ask = 0;
    for (const std::uint64_t ask :
         {std::max(borrow_want, bytes), bytes}) {
      if (ask == prev_ask || fault_denied) break;
      prev_ask = ask;
      for (;;) {
        actor().sync();
        node::LeaseAttempt att = ctx_.memory->try_borrow(
            node, ask, ctx_.hints.borrow_donor_reserve, site,
            borrow_attempt);
        if (att.node < 0) break;  // no donor at this size: try smaller
        ++borrow_attempt;
        if (!att.granted) {
          if (borrow_retries >= kFaultMaxRetries) {
            fault_denied = true;
            break;
          }
          actor().advance(borrow_backoff);
          borrow_backoff *= 2.0;
          ++borrow_retries;
          continue;
        }
        wait_grant_delay(actor(), stats_, att.delay_s);
        BufferGrant g;
        g.window_bytes = ask;
        g.revoke_after = att.lease.revoke_after();
        g.borrow_donor = att.node;
        stats_.record_borrow();
        // Probe only, as above: the data phases take the real donor
        // lease.
        att.lease.release();
        return g;
      }
    }
    stats_.record_borrow_denial();
  }
  // Rung 5: spill — swap always has room; the buffer is swap-backed and
  // every byte through it pages.
  BufferGrant g;
  g.window_bytes = bytes;
  g.spilled = true;
  stats_.record_spill();
  return g;
}

WindowBacking::WindowBacking(CollContext& ctx,
                             metrics::CollectiveStats& stats)
    : ctx_(ctx),
      stats_(stats),
      home_node_(ctx.comm->node_of(ctx.comm->rank())) {}

void WindowBacking::open(const BufferGrant& grant, std::uint64_t site) {
  site_ = site;
  window_bytes_ = grant.window_bytes;
  state_ = grant.spilled    ? State::kSwap
           : grant.borrowed() ? State::kBorrowed
                              : State::kLocal;
  probing_ = false;
  // Rung 4: a borrowed buffer lives on the donor node — the lease is
  // taken there, so donor-side accounting (and the auditor's lease
  // ledger) sees the remote grant exactly like a local one.
  node_ = grant.borrowed() ? grant.borrow_donor : home_node_;
  sim::Actor& actor = ctx_.rank->actor();
  actor.sync();
  lease_ = ctx_.memory->lease(node_, window_bytes_);
  revoke_at_ = std::isfinite(grant.revoke_after)
                   ? actor.now() + grant.revoke_after
                   : std::numeric_limits<double>::infinity();
  scale_from_lease();
  // Ladder bottomed out at negotiation: the buffer is swap-backed.
  if (state_ == State::kSwap) scale_to_swap();
}

void WindowBacking::scale_from_lease() {
  // Copies through an overcommitted buffer page against the memory bus;
  // file-system transfers page against the NIC path; a borrowed buffer's
  // fills and drains cross the donor's fabric port, blended the same way
  // if the donor is overcommitted.
  const sim::ClusterConfig& config = ctx_.rank->machine().config();
  copy_scale_ = lease_.bw_scale();
  io_scale_ =
      ctx_.memory->bw_scale_for(lease_.pressure(), config.nic_bandwidth);
  fabric_scale_ = state_ == State::kBorrowed
                      ? ctx_.memory->bw_scale_for(
                            lease_.pressure(), config.fabric_mem_bandwidth)
                      : 1.0;
}

void WindowBacking::scale_to_swap() {
  copy_scale_ = ctx_.memory->pressure_bw_scale(1.0);
  io_scale_ = ctx_.memory->bw_scale_for(
      1.0, ctx_.rank->machine().config().nic_bandwidth);
}

bool WindowBacking::reborrow() {
  // attempt 0 opens a fresh acquisition on the fault schedule — a
  // negotiation-time borrow at this site was a separate one, and so is
  // every migration/promotion probe.
  sim::Actor& actor = ctx_.rank->actor();
  actor.sync();
  node::LeaseAttempt att = ctx_.memory->try_borrow(
      home_node_, window_bytes_, ctx_.hints.borrow_donor_reserve, site_, 0);
  if (!att.granted) {
    // Only a fault-denied election counts as a denial; a probe that
    // found no donor with headroom (the common case while every peer is
    // mid-domain) is just the window watching the pool.
    if (att.node >= 0) stats_.record_borrow_denial();
    return false;
  }
  wait_grant_delay(actor, stats_, att.delay_s);
  state_ = State::kBorrowed;
  probing_ = false;
  node_ = att.node;
  revoke_at_ = std::isfinite(att.lease.revoke_after())
                   ? actor.now() + att.lease.revoke_after()
                   : std::numeric_limits<double>::infinity();
  // The probe's grant becomes the window's lease. The election left the
  // donor room for it plus the reserve, so it is fully backed; a second
  // grant beside it would count the same bytes twice and price the
  // window as overcommitted.
  lease_ = std::move(att.lease);
  scale_from_lease();
  stats_.record_borrow();
  return true;
}

void WindowBacking::step() {
  if (state_ == State::kSwap) {
    // A window swapped by a failed re-borrow keeps watching: promote
    // back onto the fabric as soon as a donor grants.
    if (probing_) reborrow();
    return;
  }
  if (ctx_.rank->actor().now() < revoke_at_) return;
  // Rung 2: the fault plan pulled the backing mid-collective.
  if (state_ == State::kBorrowed) {
    stats_.record_donor_revocation();
  } else {
    stats_.record_revocation();
  }
  // Sideways demotion into rung 4: local windows and already-borrowed
  // windows alike migrate their backing to the next elected donor, so
  // far-memory churn costs a re-election per revocation instead of
  // demoting the rest of the domain to swap.
  if (ctx_.hints.borrow_far_memory && reborrow()) return;
  // Rung 5 semantics, data intact; with the borrow hint on the window
  // keeps probing, so this demotion is not final.
  state_ = State::kSwap;
  probing_ = ctx_.hints.borrow_far_memory;
  scale_to_swap();
}

void WindowBacking::charge_source(std::uint64_t bytes) {
  sim::Cluster& cluster = ctx_.rank->machine().cluster();
  if (state_ == State::kBorrowed) {
    charge(ctx_.rank->actor(), cluster.fabric(node_), bytes, fabric_scale_);
    stats_.record_borrowed_bytes(bytes);
  } else {
    charge(ctx_.rank->actor(), cluster.membus(home_node_), bytes,
           copy_scale_);
    if (state_ == State::kSwap) stats_.record_spilled_bytes(bytes);
  }
}

void WindowBacking::charge_file(std::uint64_t bytes) {
  if (state_ != State::kBorrowed) return;
  charge(ctx_.rank->actor(), ctx_.rank->machine().cluster().fabric(node_),
         bytes, fabric_scale_);
}

void TwoPhaseExchange::negotiate_buffers() {
  for (std::size_t k = 0; k < owned_.size(); ++k) {
    Hub& hub = owned_[k];
    const FileDomain& d = domain(hub.index);
    // The borrow rung restores the full planned buffer (a rescued group's
    // domains may have been placed with floor-sized buffers), capped by
    // the domain extent so the donor lease never outsizes the data.
    const std::uint64_t borrow_want = std::min<std::uint64_t>(
        d.extent.len,
        std::max<std::uint64_t>(d.buffer_bytes, ctx_.hints.cb_buffer_size));
    grants_[k] = acquire_buffer(d.buffer_bytes, d.extent.offset, borrow_want);
    hub.window = grants_[k].window_bytes;
    // Announce the final window size to every direct source (the same set
    // that sent extent lists — all intersecting ranks on the flat path,
    // their leaders on the hierarchical one), so both sides window the
    // data stream identically.
    for (const int s : xplan_->routes.sources(hub.index)) {
      send_window_size(s, tags_.wsize, hub.window);
    }
  }
}

void TwoPhaseExchange::relay_window_sizes() {
  // A leader's sizes arrive per node domain (each aggregator announces
  // its owned domains ascending; per-source FIFO lines them up), then fan
  // out to every member with data in the domain.
  const RouteTable& routes = xplan_->routes;
  for (Hub& hub : node_hubs_) {
    hub.window = recv_window_size(domain(hub.index).aggregator, tags_.wsize);
    for (const int m : routes.members(my_rank())) {
      if (m == my_rank() || !routes.touches(m, hub.index)) continue;
      send_window_size(m, node_tags_.wsize, hub.window, mpi::Channel::kShm);
    }
  }
  // One size per link, ascending: the leader forwards a member's domains
  // ascending, exactly its links.
  for (Link& link : links_) {
    link.window = recv_window_size(link.peer, tags_of(link).wsize);
  }
}

void TwoPhaseExchange::client_send_data() {
  PieceCursor cursor(plan_.extents.runs());
  std::vector<std::byte> tmp;   // pack staging, reused across windows
  std::vector<Piece> pieces;    // window pieces, reused across windows
  for (const Link& link : links_) {
    const FileDomain& d = domain(link.domain);
    const int tag = tags_of(link).data + link.domain;
    for (Extent w{}; next_window(d.extent, link.window, &w);) {
      cursor.advance(w, &pieces);
      if (pieces.empty()) continue;
      std::uint64_t total = 0;
      for (const Piece& p : pieces) total += p.len;
      // Packing cost (skipped when the data is already one run).
      if (pieces.size() > 1) charge_copy(my_node(), total, 1.0);
      const Payload packed = staging(&tmp, total);
      util::gather(packed, plan_.buffer, pieces, at_plan);
#ifdef MCIO_FUZZ_BUG
      fuzz_bug_corrupt(packed.data, packed.size, w.offset);
#endif
      ctx_.comm->send(link.peer, tag, packed, link.channel);
      count_msg(link.peer, total);
    }
  }
}

void TwoPhaseExchange::leader_combine_write() {
  // Own data; windows ascend globally.
  PieceCursor cursor(plan_.extents.runs());
  std::vector<Piece> pieces;
  std::vector<std::byte> stage;  // combined window staging
  std::vector<std::byte> buf;    // member receive staging
  std::vector<std::byte> pack;   // forward packing
  Sweep sweep;
  for (const Hub& hub : node_hubs_) {
    const FileDomain& d = domain(hub.index);
    sweep.reset(hub);
    for (Extent w{}; next_window(d.extent, hub.window, &w);) {
      if (!sweep.clip(w)) continue;
      const ExtentList& cover = sweep.cover();
      const Extent span = cover.bounds();
      const Payload staged = staging(&stage, span.len);
      // Overlay members ascending — within the node the same overlap
      // winner as the flat rank-ascending overlay at the aggregator.
      for (const Sweep::Source* s : sweep.active()) {
        const std::uint64_t n = s->clip.total_bytes();
        if (s->rank == my_rank()) {
          // Own pieces fold straight into the staging: the single copy.
          cursor.advance(w, &pieces);
          charge_copy(my_node(), n, 1.0);
          for (const Piece& p : pieces) {
            util::copy_payload(
                staged.slice(p.file_offset - span.offset, p.len),
                plan_.buffer.slice(p.buf_offset, p.len));
          }
        } else {
          // The member's packed window blob. Its shm transfer already
          // modeled the single copy, so no extra overlay charge here.
          const Payload got = staging(&buf, n);
          ctx_.comm->recv(s->rank, node_tags_.data + hub.index, got);
          util::scatter(staged, got, s->clip.runs(), at_file(span.offset));
          stats_.record_shuffle(ctx_.comm->node_of(s->rank), my_node(), n);
        }
      }
      // One combined message per window to the aggregator.
      const std::uint64_t total = cover.total_bytes();
      if (cover.runs().size() > 1) charge_copy(my_node(), total, 1.0);
      const Payload packed = staging(&pack, total);
      util::gather(packed, staged, cover.runs(), at_file(span.offset));
      ctx_.comm->send(d.aggregator, tags_.data + hub.index, packed);
      count_msg(d.aggregator, total);
    }
  }
}

void TwoPhaseExchange::leader_scatter_read() {
  PieceCursor cursor(plan_.extents.runs());
  std::vector<Piece> pieces;
  std::vector<std::byte> stage;  // combined window staging
  std::vector<std::byte> buf;    // aggregator receive staging
  std::vector<std::byte> slice;  // per-member packing
  Sweep sweep;
  for (const Hub& hub : node_hubs_) {
    const FileDomain& d = domain(hub.index);
    sweep.reset(hub);
    for (Extent w{}; next_window(d.extent, hub.window, &w);) {
      if (!sweep.clip(w)) continue;
      const ExtentList& cover = sweep.cover();
      const Extent span = cover.bounds();
      // The aggregator ships the node's cover runs as one blob.
      const Payload got = staging(&buf, cover.total_bytes());
      ctx_.comm->recv(d.aggregator, tags_.data + hub.index, got);
      const Payload staged = staging(&stage, span.len);
      util::scatter(staged, got, cover.runs(), at_file(span.offset));
      // No staging-unpack charge: the blob arrives packed in ascending
      // run order, so member slices are cut straight out of it — their
      // single copy is the shm serve below. The leader's own pieces are
      // free too: it knows the cover's run layout before the recv, so a
      // derived-datatype receive scatters them in place — the same
      // convention under which a flat client's single-piece recv pays no
      // copy. (Rearranging real bytes through the stage is host-side
      // bookkeeping, not modeled cost.)
      for (const Sweep::Source* s : sweep.active()) {
        const std::uint64_t n = s->clip.total_bytes();
        if (s->rank == my_rank()) {
          cursor.advance(w, &pieces);
          for (const Piece& p : pieces) {
            util::copy_payload(
                plan_.buffer.slice(p.buf_offset, p.len),
                staged.slice(p.file_offset - span.offset, p.len));
          }
        } else {
          const Payload packed = staging(&slice, n);
          util::gather(packed, staged, s->clip.runs(), at_file(span.offset));
          ctx_.comm->send(s->rank, node_tags_.data + hub.index, packed,
                          mpi::Channel::kShm);
          count_msg(s->rank, n);
          stats_.record_shuffle(my_node(), ctx_.comm->node_of(s->rank), n);
        }
      }
    }
  }
}

metrics::AggregatorRecord TwoPhaseExchange::open_domain(std::size_t k,
                                                        WindowBacking* b) {
  b->open(grants_[k], domain(owned_[k].index).extent.offset);
  metrics::AggregatorRecord rec;
  rec.rank = my_rank();
  rec.node = my_node();
  rec.buffer_bytes = grants_[k].window_bytes;
  rec.pressure = b->pressure();
  return rec;
}

void TwoPhaseExchange::aggregator_write() {
  // Scratch reused across windows and domains: receive staging buffers,
  // request/payload lists and the sweep.
  Sweep sweep;
  std::vector<mpi::Request> reqs;
  std::vector<std::vector<std::byte>> pool;
  std::vector<Payload> got;
  std::vector<std::byte> cb;
  WindowBacking b(ctx_, stats_);
  for (std::size_t k = 0; k < owned_.size(); ++k) {
    const Hub& hub = owned_[k];
    const FileDomain& d = domain(hub.index);
    metrics::AggregatorRecord rec = open_domain(k, &b);
    sweep.reset(hub);
    const Payload window = staging(&cb, std::min(hub.window, d.extent.len));
    for (Extent w{}; next_window(d.extent, hub.window, &w);) {
      if (!sweep.clip(w)) continue;
      ++rec.rounds;
      b.step();
      const ExtentList& cover = sweep.cover();
      const Extent span = cover.bounds();
      const bool holes = !cover.contiguous();

      // Post all receives for this window, then (if the window has holes
      // and sieving is on) pre-read the span — ROMIO's read-modify-write.
      const auto& active = sweep.active();
      reqs.clear();
      got.clear();
      if (pool.size() < active.size()) pool.resize(active.size());
      for (std::size_t i = 0; i < active.size(); ++i) {
        got.push_back(staging(&pool[i], active[i]->clip.total_bytes()));
        reqs.push_back(ctx_.comm->irecv(
            active[i]->rank, tags_.data + hub.index, got.back()));
      }
      // No read-modify-write while any rank is degraded to independent
      // I/O: its extents are exactly the holes the sieve would bridge,
      // and the span write-back would race the rank's own writes — losing
      // its bytes (pre-read before the rank wrote) or double-writing
      // them. Gap-free windows and fault-free runs keep the fast path.
      const bool rmw = holes && ctx_.hints.data_sieving_writes &&
                       xplan_->independent_ranks.empty();
      if (rmw) {
        ctx_.fs->read(actor(), ctx_.file, span.offset,
                      window.slice(span.offset - w.offset, span.len),
                      b.io_scale());
        b.charge_file(span.len);  // the sieved span fills the window
        stats_.record_rmw(span.len);
      }
      ctx_.comm->waitall(reqs);

      // Overlay received pieces into the collective buffer.
      for (std::size_t i = 0; i < active.size(); ++i) {
        b.charge_source(got[i].size);
        util::scatter(window, got[i], active[i]->clip.runs(),
                      at_file(w.offset));
        rec.bytes_received += got[i].size;
        stats_.record_shuffle(ctx_.comm->node_of(active[i]->rank), my_node(),
                              got[i].size);
      }

      // Ship the window to the file system; a borrowed window drains
      // across the fabric before each PFS op.
      const auto drain = [&](const Extent& out) {
        b.charge_file(out.len);
        ctx_.fs->write(actor(), ctx_.file, out.offset,
                       window.slice(out.offset - w.offset, out.len),
                       b.io_scale());
        rec.io_bytes += out.len;
        stats_.record_io(out.len);
      };
      if (rmw || !holes) {
        drain(rmw ? span : cover.runs().front());
      } else {
        for (const Extent& run : cover.runs()) drain(run);
      }
    }
    // No sync before the release: the window's last act, fs->write, ran
    // in a global slice.
    b.close();
    stats_.record_aggregator(rec);
  }
}

void TwoPhaseExchange::aggregator_read() {
  Sweep sweep;
  std::vector<std::byte> cb;
  std::vector<std::byte> tmp;  // pack staging, reused across sends
  WindowBacking b(ctx_, stats_);
  for (std::size_t k = 0; k < owned_.size(); ++k) {
    const Hub& hub = owned_[k];
    const FileDomain& d = domain(hub.index);
    metrics::AggregatorRecord rec = open_domain(k, &b);
    sweep.reset(hub);
    const Payload window = staging(&cb, std::min(hub.window, d.extent.len));
    for (Extent w{}; next_window(d.extent, hub.window, &w);) {
      if (!sweep.clip(w)) continue;
      ++rec.rounds;
      b.step();
      // Data-sieving read: one contiguous read covering the span.
      const Extent span = sweep.cover().bounds();
      ctx_.fs->read(actor(), ctx_.file, span.offset,
                    window.slice(span.offset - w.offset, span.len),
                    b.io_scale());
      b.charge_file(span.len);  // the read span fills the window
      rec.io_bytes += span.len;
      stats_.record_io(span.len);

      for (const Sweep::Source* s : sweep.active()) {
        const std::uint64_t n = s->clip.total_bytes();
        b.charge_source(n);  // pack
        const Payload packed = staging(&tmp, n);
        util::gather(packed, window, s->clip.runs(), at_file(w.offset));
        ctx_.comm->send(s->rank, tags_.data + hub.index, packed);
        rec.bytes_sent += n;
        count_msg(s->rank, n);
        stats_.record_shuffle(my_node(), ctx_.comm->node_of(s->rank), n);
      }
    }
    // Rejoin the global order before returning the lease: the window's
    // last act was a local-class send, and the release must apply in a
    // global slice so it orders against other ranks' ladder grants by
    // (time, actor).
    actor().sync();
    b.close();
    stats_.record_aggregator(rec);
  }
}

void TwoPhaseExchange::client_recv_data() {
  PieceCursor cursor(plan_.extents.runs());
  std::vector<std::byte> tmp;   // scatter staging, reused across windows
  std::vector<Piece> pieces;    // window pieces, reused across windows
  for (const Link& link : links_) {
    const FileDomain& d = domain(link.domain);
    const int tag = tags_of(link).data + link.domain;
    for (Extent w{}; next_window(d.extent, link.window, &w);) {
      cursor.advance(w, &pieces);
      if (pieces.empty()) continue;
      std::uint64_t total = 0;
      for (const Piece& p : pieces) total += p.len;
      const Payload got = staging(&tmp, total);
      ctx_.comm->recv(link.peer, tag, got);
      util::scatter(plan_.buffer, got, pieces, at_plan);
      // Scatter cost (skipped when the data is one run).
      if (pieces.size() > 1) charge_copy(my_node(), total, 1.0);
    }
  }
}

// Every stage runs on every rank: a rank without links, hubs or node
// hubs finds an empty table. A rank the plan degraded to independent I/O
// has no table at all; it negotiates with the rest (the degraded
// protocol closes negotiation collectively) and then does its own I/O.
void TwoPhaseExchange::write() {
  negotiate();
  if (independent_) {
    independent_write(ctx_, plan_);
    return;
  }
  client_send_data();
  leader_combine_write();
  aggregator_write();
}

void TwoPhaseExchange::read() {
  negotiate();
  if (independent_) {
    independent_read(ctx_, plan_);
    return;
  }
  aggregator_read();
  leader_scatter_read();
  client_recv_data();
}

void TwoPhaseExchange::negotiate() {
  if (my_rank() == 0) stats_.set_groups(xplan_->num_groups);
  if (independent_) stats_.record_fallback(plan_.total_bytes());
  send_extent_lists();
  leader_collect_extent_lists();
  recv_extent_lists();
  if (!degraded_) return;
  // Degradation ladder + window-size negotiation: aggregators settle
  // their (possibly shrunk) buffers and announce the final window size
  // before any data moves, so both sides window identically. The
  // negotiation closes with an exact time alignment: retry backoffs then
  // delay the collective by the slowest ladder instead of staggering the
  // data phase, which keeps bandwidth monotone in the fault rate.
  negotiate_buffers();
  relay_window_sizes();
  close_negotiation();
}

void TwoPhaseExchange::close_negotiation() {
  // A plain barrier is not enough: its per-rank exit times depend on who
  // arrived last, and shared resources serve in request order, so even a
  // µs exit skew can reorder downstream requests and swing the makespan
  // by far more than the fault penalty itself. Instead every rank resumes
  // at exactly max(arrival) + slack — one backed-off ladder then delays
  // the whole collective by precisely its own cost.
  actor().sync();
  const double t = ctx_.comm->allreduce_max(actor().now(),
                                            xplan_->routes.hierarchical());
  actor().advance_to(
      std::max(actor().now(), t + kNegotiationCloseSlack));
}

}  // namespace mcio::io
