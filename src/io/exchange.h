// The generalized two-phase shuffle engine.
//
// Both collective drivers reduce to the same machinery once file domains
// and aggregators are chosen: clients ship the extents of their request to
// each relevant aggregator, then data moves in cb_buffer-sized windows —
// clients→aggregators→PFS for writes, PFS→aggregators→clients for reads.
// The baseline ROMIO driver feeds this engine an even partition with one
// aggregator per node and a fixed buffer; the MCCIO driver feeds it the
// partition-tree domains with memory-aware aggregators and per-domain
// buffers. Sharing the engine means both strategies are compared on
// exactly the same transport mechanics, differing only in the decisions
// the paper is about.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "io/driver.h"
#include "util/extent.h"

namespace mcio::io {

/// One file domain: a contiguous byte range served by one aggregator with
/// an aggregation buffer of `buffer_bytes`.
struct FileDomain {
  util::Extent extent;
  int aggregator = -1;  ///< rank within the collective communicator
  std::uint64_t buffer_bytes = 0;

  friend bool operator==(const FileDomain&, const FileDomain&) = default;
};

/// A read of live simulation state made while building a plan: MCCIO's
/// donor election for a dead group the borrow rung rescues. Its answer
/// depends on when it is asked, so the shared plan records it and audit
/// mode re-asks it on every rank (share_exchange_plan).
struct DonorElection {
  int borrower = -1;  ///< node asking
  std::uint64_t bytes = 0;
  std::uint64_t reserve = 0;
  int donor = -1;  ///< node::MemoryManager::elect_donor's answer
};

struct ExchangePlan;

/// Who exchanges with whom in one collective: a pure function of the
/// plan, the communicator's node map and the node-leader hint, derived
/// once beside the shared plan (share_exchange_plan) so that senders and
/// receivers read the same lists. Domains index ExchangePlan::domains;
/// ranks are communicator ranks. Each list is one CSR row (offsets plus
/// one flat vector).
class RouteTable {
 public:
  /// `nodes` maps each rank to its node; `node_leaders` routes each
  /// node's data ranks through one leader (hints.cb_node_leaders, moot
  /// on a single rank).
  static RouteTable derive(const ExchangePlan& plan,
                           const std::vector<int>& nodes, bool node_leaders);

  bool hierarchical() const { return hier_; }
  int ranks() const { return static_cast<int>(clients_.size()); }
  /// The domains rank `r`'s bounds meet, [first, last): the domains are
  /// sorted and disjoint, so they are contiguous.
  std::pair<int, int> client_domains(int r) const { return clients_[r]; }
  bool touches(int r, int domain) const {
    return clients_[r].first <= domain && domain < clients_[r].second;
  }
  /// Domains rank `r` aggregates, ascending.
  std::span<const int> owned(int r) const { return owned_.row(r); }
  /// Ranks that ship straight to `domain`'s aggregator, ascending: every
  /// rank touching it on the flat path, one leader per touching node on
  /// the hierarchical one.
  std::span<const int> sources(int domain) const {
    return sources_.row(domain);
  }
  /// Hierarchical only: the leader of `r`'s node, its lowest data rank
  /// (non-empty bounds); -1 for a rank without data.
  int leader(int r) const { return leader_[r]; }
  /// Hierarchical only: leader `l`'s members, its node's data ranks
  /// ascending (`l` first); empty for a rank that does not lead.
  std::span<const int> members(int l) const { return members_.row(l); }
  /// Hierarchical only: the domains any member of `l` touches, ascending.
  std::span<const int> node_domains(int l) const {
    return node_domains_.row(l);
  }

 private:
  struct Rows {
    std::vector<int> offsets;
    std::vector<int> items;
    std::span<const int> row(int i) const {
      return std::span(items).subspan(offsets[i], offsets[i + 1] - offsets[i]);
    }
  };
  /// `rows` rows from `emit(push)`, which calls push(row, item) for every
  /// entry, each row's items in order; it runs twice (count, then fill).
  template <typename Emit>
  static Rows bucket(int rows, const Emit& emit);

  bool hier_ = false;
  std::vector<std::pair<int, int>> clients_;
  std::vector<int> leader_;
  Rows owned_, sources_, members_, node_domains_;
};

/// The decisions a driver hands to the exchange engine. Every rank of the
/// communicator holds the same immutable ExchangePlan: the driver builds
/// it once per collective from the allgathered metadata and every rank
/// takes a pointer to it (share_exchange_plan).
struct ExchangePlan {
  std::vector<FileDomain> domains;  ///< sorted by offset, disjoint
  /// Per-rank request bounds (len 0 = rank has no data). Used to decide
  /// who exchanges extent lists with whom, exactly like ROMIO's
  /// st_offsets/end_offsets arrays.
  std::vector<util::Extent> rank_bounds;
  /// Whether payloads are real bytes (tests) or virtual (paper-scale).
  bool real_data = true;
  /// Number of aggregation groups (metrics only; 1 for the baseline).
  int num_groups = 1;
  /// Ranks degraded to independent I/O (ascending): the degradation
  /// ladder's plan-time last resort (see the rung table below). Their
  /// rank_bounds entries are empty, so they take no part in the shuffle;
  /// TwoPhaseExchange runs their negotiation with every other rank and
  /// then their own I/O (write()/read()).
  std::vector<int> independent_ranks;
  /// Donor elections the build's plan-time rescue relied on (granted
  /// ones only), in group order.
  std::vector<DonorElection> donor_elections;
  /// Derived from the fields above by share_exchange_plan, right after
  /// validate().
  RouteTable routes;

  void validate(int comm_size) const;
};

/// Running hash of the rank-local inputs a plan build reads: ranks whose
/// keys match would build the same plan from the same allgathered data.
class PlanKey {
 public:
  /// Seeds the key with what every build reads: the driver's name, the
  /// stripe unit, the communicator size, whether a fault plan is attached
  /// and the node-leader hint.
  PlanKey(const CollContext& ctx, const char* driver);
  PlanKey& add(std::uint64_t v);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0;
};

/// The current collective's one plan, called by every rank of ctx.comm
/// right after the metadata allgather `build` reads. The first rank to
/// arrive runs `build`, validates the result and derives its routes
/// (ctx.hints.cb_node_leaders picks the path); every rank gets a
/// pointer to the same immutable plan. Reports this rank's `rank_key`
/// next to the builder's through Observer::on_plan_taken and, in audit
/// mode (an observer attached), re-asks the plan's donor elections.
std::shared_ptr<const ExchangePlan> share_exchange_plan(
    CollContext& ctx, std::uint64_t rank_key,
    const std::function<ExchangePlan()>& build);

// The graceful-degradation ladder — authoritative rung table. Every
// other description (collective_stats.h, DESIGN.md §11, bench/README
// docs) refers here. Plan-time steps are decided in the drivers' plan
// builds. Rungs 1, 3, 4 and 5 settle each aggregation buffer's
// BufferGrant at negotiation (TwoPhaseExchange::acquire_buffer);
// WindowBacking carries the grant through the data phase, where rung 2
// and rung 4's re-borrows run. Every grant, local or borrowed, is one
// node::MemoryManager::try_lease draw (try_borrow is elect_donor plus a
// try_lease on the donor at a salted site).
//
//   plan    remerge        domains merged away from memory-poor hosts
//                          (MCCIO placement, §3.3; plan_remerges)
//   rung 1  retry          exponential backoff, kFaultMaxRetries per
//                          level, capped at kFaultAttemptCap total
//                          attempts (lease_retries, lease_retry_giveups)
//   rung 2  revocation     granted backing pulled mid-collective: finish
//           tolerance      at swap speed, data intact (revocations /
//                          donor_revocations for borrowed buffers)
//   rung 3  shrink         halve the buffer down to fault_shrink_floor,
//                          retry budget restarts per level (buffer_shrinks)
//   rung 4  borrow far     lease a full-size window on an elected donor
//           memory         node, reached over the fabric channel; only
//                          with hints.borrow_far_memory (borrows,
//                          borrowed_bytes, borrow_denials)
//   rung 5  spill          forced overcommitted lease: swap-backed
//                          buffer, every byte pages (spills,
//                          spilled_bytes)
//   plan    independent    fully exhausted donor-less groups leave the
//           fallback       shuffle: their ranks negotiate with the rest,
//                          then write/read independently inside
//                          TwoPhaseExchange (fallback_ranks,
//                          fallback_bytes); the two-phase driver skips
//                          the exchange only when every node is
//                          exhausted

/// Outcome of the degradation ladder for one aggregation buffer, fixed at
/// negotiation (fault-injected runs). It settles the *terms* of the
/// buffer; WindowBacking takes the lease while the domain is processed,
/// so memory accounting matches the fault-free protocol (one domain's
/// buffer held at a time, not all at once). Fault-free runs back every
/// window with a default grant of the planned buffer size.
struct BufferGrant {
  /// Actual per-window buffer bytes (≤ the planned buffer after
  /// shrinking; may *exceed* it for a borrowed window, which restores
  /// the full planned size).
  std::uint64_t window_bytes = 0;
  /// Virtual seconds after processing starts at which the backing
  /// disappears; infinity = never.
  double revoke_after = std::numeric_limits<double>::infinity();
  bool spilled = false;  ///< ladder bottomed out: swap-backed buffer
  /// Rung 4: donor node backing this buffer over the fabric; -1 = the
  /// buffer is local.
  int borrow_donor = -1;
  bool borrowed() const { return borrow_donor >= 0; }
};

/// The backing of one domain's aggregation window during the data phase:
/// which node holds its lease, where fills and drains are charged, and
/// the window's mid-collective moves down (and back up) the ladder.
///
///   state     lease on  charge_source    charge_file     step()
///   local     own node  own membus       free            revocation due:
///   borrowed  donor     donor's fabric   donor's fabric    re-borrow,
///                                                          else swap
///   swap      kept      own membus,      free            if probing:
///                       paging                             re-borrow
///
/// A window starts local, borrowed (grant.borrowed()) or swap
/// (grant.spilled). Only local and borrowed windows can be revoked; a
/// revoked window first tries a sideways re-borrow onto the next elected
/// donor (borrow hint on), else falls to swap. A swap window probes for a
/// donor once per round only when revocation put it there with the
/// borrow hint on; a window spilled at negotiation never probes. Windows
/// are filled and drained whole from live sources and the file, so a
/// move at a window boundary never puts data at risk.
class WindowBacking {
 public:
  enum class State { kLocal, kBorrowed, kSwap };

  /// Ladder events land in `stats`.
  WindowBacking(CollContext& ctx, metrics::CollectiveStats& stats);

  /// Takes the lease (on the donor for a borrowed grant) at the actor's
  /// global time and arms the grant's revocation. `site` keys the fault
  /// schedule for re-borrows (the domain's file offset).
  void open(const BufferGrant& grant, std::uint64_t site);
  /// Once per non-empty window round, before any of its data moves:
  /// applies a due revocation (rung 2, counted as donor_revocations for
  /// a borrowed window and revocations otherwise), re-borrowing or
  /// falling to swap; a probing swap window tries one promotion instead.
  void step();
  /// Charges one source's bytes moving between the window and its
  /// message — over the donor's fabric port when borrowed, else the
  /// local memory bus — and counts them as borrowed or spilled bytes.
  void charge_source(std::uint64_t bytes);
  /// Charges a PFS-side fill or drain of the window: only a borrowed
  /// window pays (the fabric crossing); local paging is in io_scale().
  void charge_file(std::uint64_t bytes);
  std::uint64_t window_bytes() const { return window_bytes_; }
  /// Bandwidth scale for PFS calls through this window.
  double io_scale() const { return io_scale_; }
  /// Overcommit fraction of the current lease.
  double pressure() const { return lease_.pressure(); }
  void close() { lease_.release(); }

  State state() const { return state_; }
  bool probing() const { return probing_; }

 private:
  /// One rung-4 attempt to move the backing onto an elected donor,
  /// keeping the window size; false (a denial only if a donor was
  /// elected but fault-denied) when none grants.
  bool reborrow();
  /// Derives every bandwidth scale from the current lease's pressure.
  void scale_from_lease();
  /// Swap semantics: every byte through the buffer pages.
  void scale_to_swap();

  CollContext& ctx_;
  metrics::CollectiveStats& stats_;
  int home_node_ = -1;
  std::uint64_t site_ = 0;
  std::uint64_t window_bytes_ = 0;
  State state_ = State::kLocal;
  bool probing_ = false;
  int node_ = -1;  ///< node holding the lease
  node::Lease lease_;
  double revoke_at_ = std::numeric_limits<double>::infinity();
  double copy_scale_ = 1.0;
  double io_scale_ = 1.0;
  double fabric_scale_ = 1.0;
};

/// Runs one collective write or read. Construct per operation.
///
/// Every role reduces to tables resolved before data moves, so the data
/// phases only read them:
///   links   this rank's client domains, each with its upstream peer (the
///           domain's aggregator, or the node leader over shm when node
///           leaders are on; a leader has none) and window size;
///   hubs    domains this rank gathers, each with its sources' extent
///           lists: an aggregator's owned domains, and a node leader's
///           node domains, whose sources are the node's members;
///   grants  the ladder's terms for each owned domain's buffer.
/// All three start at the planned buffer; the fault protocol's
/// negotiation overwrites them. A table a role lacks is empty, so every
/// stage runs on every rank.
class TwoPhaseExchange {
 public:
  TwoPhaseExchange(CollContext& ctx, const AccessPlan& plan,
                   std::shared_ptr<const ExchangePlan> xplan);

  /// Collective: every rank of the communicator calls one of these. A
  /// rank in the plan's independent_ranks negotiates with the rest and
  /// then writes or reads its own request independently.
  void write();
  void read();

 private:
  /// One client domain's upstream end.
  struct Link {
    int domain = -1;  ///< index into xplan_->domains
    int peer = -1;    ///< the domain's aggregator, or this node's leader
    /// kShm when the peer is the node leader (node tags, shm channel).
    mpi::Channel channel = mpi::Channel::kTransport;
    std::uint64_t window = 0;
  };

  /// One domain gathered here: an owned domain (sources are the ranks
  /// that ship to its aggregator) or a leader's node domain (sources are
  /// the members with bytes in it).
  struct Hub {
    int index = -1;  ///< index into xplan_->domains
    std::uint64_t window = 0;
    /// Per-source extent lists, ascending by source, empty lists dropped.
    std::vector<std::pair<int, util::ExtentList>> sources;
  };

  /// A hub swept window by window (windows ascend within the domain): a
  /// monotone cursor and a clip per source; the cover is the union of the
  /// clips.
  class Sweep {
   public:
    struct Source {
      int rank = -1;
      util::ExtentCursor cursor;
      util::ExtentList clip;
    };
    void reset(const Hub& hub);
    /// Clips every source to `w`; false when no source has bytes in it.
    bool clip(const util::Extent& w);
    /// Sources with bytes in the last window, ascending.
    const std::vector<const Source*>& active() const { return active_; }
    const util::ExtentList& cover() const { return cover_; }

   private:
    std::vector<Source> sources_;
    std::vector<const Source*> active_;
    util::ExtentList cover_;
  };

  /// One tag family: extent lists, window sizes, and one data tag per
  /// domain from `data`.
  struct Tags {
    int lists = 0;
    int wsize = 0;
    int data = 0;
  };

  // Phase helpers.
  void send_extent_lists();
  void recv_extent_lists();
  /// Everything before data moves, shared by write() and read(): the
  /// extent lists reach the aggregators, then the degraded protocol runs
  /// negotiate_buffers(), relay_window_sizes() and close_negotiation().
  void negotiate();
  void negotiate_buffers();
  /// Every link and node hub learns its negotiated window size: node
  /// hubs and flat links from the aggregators, and a leader fans each
  /// node domain's size out to its members' links.
  void relay_window_sizes();
  void close_negotiation();
  void client_send_data();
  /// Aggregator side of owned domain `k`: opens `b` on the domain's grant
  /// and returns the domain's aggregator record.
  metrics::AggregatorRecord open_domain(std::size_t k, WindowBacking* b);
  void aggregator_write();
  void aggregator_read();
  void client_recv_data();

  // Node-leader stages (hints.cb_node_leaders): members move metadata and
  // payloads into their leader over the node's shm channel; only leaders
  // exchange with aggregators, whose hubs simply list leaders as sources.
  /// Leader: drain member extent lists into the node hubs and forward
  /// each hub's union to its aggregator.
  void leader_collect_extent_lists();
  /// Leader write stage: per (domain, window) combine member payloads and
  /// its own pieces into one staging buffer, forward the cover's runs.
  void leader_combine_write();
  /// Leader read stage: per (domain, window) take the cover's runs from
  /// the aggregator and scatter member slices over shm.
  void leader_scatter_read();

  /// Runs the degradation ladder (rung table above) for one aggregation
  /// buffer: fault-aware lease attempts with exponential backoff in
  /// virtual time, then shrink-and-retry, then — once local memory is
  /// out — a far-memory borrow when enabled, and finally a forced
  /// swap-backed spill lease. `site` keys the fault schedule (the
  /// domain's file offset); `borrow_want` is the window the borrow rung
  /// tries to restore (the full planned buffer, capped by the domain
  /// extent) before settling for the ladder's current size.
  BufferGrant acquire_buffer(std::uint64_t want, std::uint64_t site,
                             std::uint64_t borrow_want);
  /// Lease retries (exponential backoff in virtual time) per buffer size
  /// before the ladder shrinks the buffer; also the borrow rung's retry
  /// budget across both of its ask sizes.
  static constexpr int kFaultMaxRetries = 4;
  /// Hard cap on fault-aware lease attempts within one ladder run. When
  /// the fault schedule denies this many attempts the ladder gives up on
  /// local memory (counted as a lease_retry_giveup) and jumps straight to
  /// its terminal rungs (borrow, then spill) instead of retrying until
  /// the schedule relents. Sized above any full retry×shrink descent of
  /// the default ladder, so it only fires on adversarial schedules.
  static constexpr std::uint64_t kFaultAttemptCap = 64;

  int my_rank() const;
  int my_node() const;
  sim::Actor& actor();
  const FileDomain& domain(int index) const {
    return xplan_->domains[static_cast<std::size_t>(index)];
  }
  /// The tag family a link's traffic uses.
  const Tags& tags_of(const Link& link) const {
    return link.channel == mpi::Channel::kShm ? node_tags_ : tags_;
  }
  /// `n` bytes of staging: `v` resized when payloads are real, else
  /// virtual, so the gather/scatter helpers skip the copy.
  util::Payload staging(std::vector<std::byte>* v, std::uint64_t n) const;

  /// Charges a packing/scatter memcpy on `node` and advances the actor.
  void charge_copy(int node, std::uint64_t bytes, double bw_scale);

  /// Counts one logical message to `dst` (metrics only, no virtual time).
  void count_msg(int dst, std::uint64_t bytes);

  /// Sends a negotiated window size (8 bytes) to `dst` and counts it.
  void send_window_size(int dst, int tag, std::uint64_t window,
                        mpi::Channel channel = mpi::Channel::kTransport);
  /// Receives a window size from `src`; a zero size is a CHECK failure.
  std::uint64_t recv_window_size(int src, int tag);

  CollContext& ctx_;
  const AccessPlan& plan_;
  std::shared_ptr<const ExchangePlan> xplan_;
  /// Where every record_* lands: ctx.stats, or discard_ without one.
  metrics::CollectiveStats discard_;
  metrics::CollectiveStats& stats_;
  /// Fault-injected run: aggregation buffers go through the degradation
  /// ladder and their final window sizes are negotiated with the clients
  /// before data moves. False (the exact legacy protocol) when no
  /// FaultPlan is attached.
  bool degraded_ = false;
  /// This rank is in the plan's independent_ranks.
  bool independent_ = false;
  Tags tags_;       ///< client/leader ↔ aggregator traffic
  Tags node_tags_;  ///< member ↔ leader traffic (node leaders only)

  std::vector<Link> links_;
  std::vector<Hub> owned_;       ///< ascending by index
  std::vector<Hub> node_hubs_;   ///< node leaders only, ascending
  std::vector<BufferGrant> grants_;  ///< parallel to owned_
};

}  // namespace mcio::io
