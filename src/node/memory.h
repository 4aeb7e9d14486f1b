// Per-node memory accounting with availability variance.
//
// The paper's experiments emulate extreme-scale memory pressure by
// constraining the memory available for aggregation buffers and by giving
// it significant variance across nodes (§4: normal distribution around the
// nominal buffer size). This module models exactly that: each node draws
// its available aggregation memory once per experiment; leases track
// consumption; a lease that overcommits the node gets a *pressure*
// coefficient that slows every copy and transfer through that buffer (the
// paging behaviour a real overcommitted aggregator exhibits).
//
// A node::FaultPlan may additionally be attached, turning the manager
// fault-aware: try_lease() then consults the plan's per-node schedule and
// can deny the grant, delay it, or arm a mid-collective revocation. With
// no plan attached every code path is identical to the fault-free build.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "node/fault.h"
#include "sim/topology.h"
#include "util/rng.h"
#include "verify/observer.h"

namespace mcio::node {

struct MemoryVariance {
  /// Standard deviation of available memory as a fraction of the mean.
  /// The paper sets the normal distribution's stdev to "50"; we read that
  /// as 50 % of the mean (see DESIGN.md) and make it configurable.
  double relative_stdev = 0.5;
  /// Draws are clamped below at this many bytes.
  std::uint64_t floor_bytes = 1ull << 20;
};

class MemoryManager;

/// RAII lease of aggregation memory on one node. A Lease may outlive its
/// MemoryManager: release() after the manager is gone is a no-op (the
/// liveness token below), not a use-after-free.
class Lease {
 public:
  Lease() = default;
  Lease(Lease&& other) noexcept;
  Lease& operator=(Lease&& other) noexcept;
  Lease(const Lease&) = delete;
  Lease& operator=(const Lease&) = delete;
  ~Lease();

  std::uint64_t bytes() const { return bytes_; }
  int node() const { return node_; }
  /// Fraction of this lease that exceeded the node's available memory at
  /// grant time; 0 for a fully backed lease.
  double pressure() const { return pressure_; }
  /// Bandwidth scale (≤ 1) for copies/transfers through this buffer,
  /// blending fast-path and swap bandwidth by the pressure fraction.
  double bw_scale() const { return bw_scale_; }
  /// Virtual seconds after the grant at which the fault plan revokes this
  /// lease's backing; infinity = never.
  double revoke_after() const { return revoke_after_; }

  void release();
  bool active() const { return mgr_ != nullptr; }

 private:
  friend class MemoryManager;
  Lease(MemoryManager* mgr, std::weak_ptr<const bool> alive, int node,
        std::uint64_t bytes, double pressure, double bw_scale);

  MemoryManager* mgr_ = nullptr;
  /// Tracks the owning manager's lifetime; expired or false = manager
  /// destroyed, release() must not touch it.
  std::weak_ptr<const bool> alive_;
  int node_ = -1;
  std::uint64_t bytes_ = 0;
  double pressure_ = 0.0;
  double bw_scale_ = 1.0;
  double revoke_after_ = std::numeric_limits<double>::infinity();
};

/// Outcome of a fault-aware lease attempt, local (try_lease) or borrowed
/// (try_borrow).
struct LeaseAttempt {
  bool granted = false;
  /// Node the attempt drew on: the requested node for try_lease, the
  /// elected donor for try_borrow; -1 when no donor qualified (in which
  /// case no fault draw was consumed).
  int node = -1;
  /// Transient grant delay in virtual seconds, charged by the caller
  /// before the lease is used (0 when no fault plan is attached).
  double delay_s = 0.0;
  Lease lease;  ///< held on `node`; valid only when granted
};

class MemoryManager {
 public:
  /// `mean_available` is the nominal aggregation memory per node (the
  /// paper's per-aggregator buffer size knob); each node's actual
  /// availability is drawn from N(mean, rel_stdev·mean), clamped to
  /// [floor, node_memory].
  MemoryManager(const sim::ClusterConfig& config,
                std::uint64_t mean_available, MemoryVariance variance,
                std::uint64_t seed);
  ~MemoryManager();

  // Outstanding leases hold a pointer to this object, so it is pinned.
  MemoryManager(const MemoryManager&) = delete;
  MemoryManager& operator=(const MemoryManager&) = delete;
  MemoryManager(MemoryManager&&) = delete;
  MemoryManager& operator=(MemoryManager&&) = delete;

  /// Uniform availability (no variance) — baseline configuration helper.
  static MemoryManager uniform(const sim::ClusterConfig& config,
                               std::uint64_t available_per_node);

  int num_nodes() const { return static_cast<int>(capacity_.size()); }

  /// Attaches (or detaches, with nullptr) a fault-injection plan. Not
  /// owned; must outlive the attached period.
  void set_fault_plan(FaultPlan* plan) { faults_ = plan; }
  const FaultPlan* fault_plan() const { return faults_; }
  bool faults_enabled() const { return faults_ != nullptr; }

  /// Memory currently available for new aggregation buffers on `node`.
  /// Nodes the fault plan marks exhausted report 0, so planning naturally
  /// routes aggregation away from them.
  std::uint64_t available(int node) const;
  /// The node's drawn capacity (before any leases).
  std::uint64_t capacity(int node) const;

  /// Grants `bytes` on `node` unconditionally; overcommit yields pressure.
  /// Bypasses the fault plan — this is the spill path (swap always
  /// "succeeds", just slowly).
  Lease lease(int node, std::uint64_t bytes);

  /// Fault-aware grant: consults the fault plan's schedule for `node`.
  /// `site` names the acquisition site (callers use the file-domain
  /// offset) and `attempt` the retry index within one degradation-ladder
  /// run — see FaultPlan::lease_fault. Without a plan this is exactly
  /// lease(), always granted immediately.
  LeaseAttempt try_lease(int node, std::uint64_t bytes,
                         std::uint64_t site = 0, std::uint64_t attempt = 0);

  /// Deterministic donor election for a far-memory borrow: the node ≠
  /// `borrower` with the most available memory that can back `bytes`
  /// while keeping `reserve` bytes of headroom for its own aggregation;
  /// ties break to the lowest node id. A pure function of shared manager
  /// state (exhausted nodes report 0 available), so every rank elects
  /// the same donor — the same construction as node-leader election in
  /// the hierarchy. Returns -1 when no node qualifies.
  int elect_donor(int borrower, std::uint64_t bytes,
                  std::uint64_t reserve) const;

  /// Fault-aware far-memory borrow (degradation-ladder rung 4):
  /// elect_donor, then try_lease *on the donor node* at a borrow-salted
  /// site. Donor-side accounting (capacity, pressure, observer
  /// grant/release events) is exactly that of a local lease, so the
  /// verify-layer lease-balance auditor covers remote leases for free.
  /// The salt keeps borrow streams from perturbing local acquisition
  /// schedules at the same file offset, and the nested-across-rates
  /// property carries over. Without a plan the borrow is granted
  /// whenever a donor exists.
  LeaseAttempt try_borrow(int borrower, std::uint64_t bytes,
                          std::uint64_t reserve, std::uint64_t site = 0,
                          std::uint64_t attempt = 0);

  /// High-water mark of leased bytes per node (for reports).
  std::uint64_t high_water(int node) const;

  /// Bandwidth scale for a given pressure fraction: time is blended
  /// between the fast path and the swap device.
  double pressure_bw_scale(double pressure) const;

  /// Same blend against an arbitrary fast path (e.g. the NIC when shipping
  /// a partially swapped aggregation buffer to the file system).
  double bw_scale_for(double pressure, double fast_bandwidth) const;

  /// Verification observer for grant/release events (never null;
  /// defaults to verify::global_observer() or a no-op).
  void set_observer(verify::Observer* observer);
  verify::Observer* observer() const { return observer_; }

 private:
  friend class Lease;
  void release(int node, std::uint64_t bytes);

  sim::ClusterConfig config_;
  std::vector<std::uint64_t> capacity_;
  std::vector<std::uint64_t> leased_;
  std::vector<std::uint64_t> high_water_;
  FaultPlan* faults_ = nullptr;
  verify::Observer* observer_;
  /// Liveness token shared with leases; flipped false by the destructor.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace mcio::node
