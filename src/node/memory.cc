#include "node/memory.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace mcio::node {

namespace {

// Far-memory borrow attempts draw from the donor's fault schedule at a
// salted site, so a borrow aimed at file offset X never shares (or
// shifts) the donor's own acquisition stream at site X. High bits only:
// real sites are file offsets and keep their low bits distinguishable.
constexpr std::uint64_t kBorrowSiteSalt = 0x626f7272ULL << 32;  // "borr"

}  // namespace

Lease::Lease(MemoryManager* mgr, std::weak_ptr<const bool> alive, int node,
             std::uint64_t bytes, double pressure, double bw_scale)
    : mgr_(mgr),
      alive_(std::move(alive)),
      node_(node),
      bytes_(bytes),
      pressure_(pressure),
      bw_scale_(bw_scale) {}

Lease::Lease(Lease&& other) noexcept { *this = std::move(other); }

Lease& Lease::operator=(Lease&& other) noexcept {
  if (this == &other) return *this;  // self-move: keep the held lease
  release();                         // never leak the currently held lease
  mgr_ = std::exchange(other.mgr_, nullptr);
  alive_ = std::move(other.alive_);
  node_ = other.node_;
  bytes_ = other.bytes_;
  pressure_ = other.pressure_;
  bw_scale_ = other.bw_scale_;
  revoke_after_ = other.revoke_after_;
  return *this;
}

Lease::~Lease() { release(); }

void Lease::release() {
  MemoryManager* mgr = std::exchange(mgr_, nullptr);
  if (mgr == nullptr) return;
  // The owning manager may already be gone (leases are movable and can
  // outlive it); only return the bytes while its liveness token holds.
  if (const auto alive = alive_.lock(); alive && *alive) {
    mgr->release(node_, bytes_);
  }
  alive_.reset();
}

MemoryManager::MemoryManager(const sim::ClusterConfig& config,
                             std::uint64_t mean_available,
                             MemoryVariance variance, std::uint64_t seed)
    : config_(config), observer_(verify::default_observer()) {
  MCIO_CHECK_GT(mean_available, 0u);
  util::Rng rng(seed);
  const auto n = static_cast<std::size_t>(config.num_nodes);
  capacity_.resize(n);
  leased_.assign(n, 0);
  high_water_.assign(n, 0);
  const double mean = static_cast<double>(mean_available);
  const double stdev = variance.relative_stdev * mean;
  for (std::size_t i = 0; i < n; ++i) {
    double draw = rng.normal(mean, stdev);
    draw = std::max(draw, static_cast<double>(variance.floor_bytes));
    draw = std::min(draw, static_cast<double>(config.node_memory));
    capacity_[i] = static_cast<std::uint64_t>(draw);
  }
}

MemoryManager::~MemoryManager() {
  *alive_ = false;
  observer_->on_manager_destroyed(this);
}

void MemoryManager::set_observer(verify::Observer* observer) {
  observer_ = verify::observer_or_noop(observer);
}

MemoryManager MemoryManager::uniform(const sim::ClusterConfig& config,
                                     std::uint64_t available_per_node) {
  MemoryVariance no_variance;
  no_variance.relative_stdev = 0.0;
  no_variance.floor_bytes = 0;
  return MemoryManager(config, available_per_node, no_variance, 1);
}

std::uint64_t MemoryManager::available(int node) const {
  const auto i = static_cast<std::size_t>(node);
  MCIO_CHECK_LT(i, capacity_.size());
  if (faults_ != nullptr && faults_->exhausted(node)) return 0;
  return leased_[i] >= capacity_[i] ? 0 : capacity_[i] - leased_[i];
}

std::uint64_t MemoryManager::capacity(int node) const {
  const auto i = static_cast<std::size_t>(node);
  MCIO_CHECK_LT(i, capacity_.size());
  return capacity_[i];
}

Lease MemoryManager::lease(int node, std::uint64_t bytes) {
  // The manager is machine-global state: its balances feed every rank's
  // grant decisions, so callers reach it from global-class slices
  // (Actor::sync()), which order after same-time message-path slices.
  const auto i = static_cast<std::size_t>(node);
  MCIO_CHECK_LT(i, capacity_.size());
  const std::uint64_t avail = available(node);
  double pressure = 0.0;
  if (bytes > 0 && bytes > avail) {
    pressure = static_cast<double>(bytes - avail) /
               static_cast<double>(bytes);
  }
  leased_[i] += bytes;
  high_water_[i] = std::max(high_water_[i], leased_[i]);
  observer_->on_lease_grant(this, node, bytes);
  return Lease(this, alive_, node, bytes, pressure,
               pressure_bw_scale(pressure));
}

LeaseAttempt MemoryManager::try_lease(int node, std::uint64_t bytes,
                                      std::uint64_t site,
                                      std::uint64_t attempt) {
  LeaseAttempt att;
  att.node = node;
  LeaseFault f;
  if (faults_ != nullptr) {
    f = faults_->lease_fault(node, site, attempt);
    if (f.deny) return att;
  }
  att.granted = true;
  att.delay_s = f.delay_s;
  att.lease = lease(node, bytes);
  att.lease.revoke_after_ = f.revoke_after_s;
  return att;
}

int MemoryManager::elect_donor(int borrower, std::uint64_t bytes,
                               std::uint64_t reserve) const {
  // A read, but one whose answer orders against other ranks' grants —
  // reached from a global-class slice like the mutations.
  int best = -1;
  std::uint64_t best_avail = 0;
  for (int n = 0; n < num_nodes(); ++n) {
    if (n == borrower) continue;
    const std::uint64_t avail = available(n);  // exhausted nodes report 0
    if (avail < bytes || avail - bytes < reserve) continue;
    if (best < 0 || avail > best_avail) {
      best = n;
      best_avail = avail;
    }
  }
  return best;
}

LeaseAttempt MemoryManager::try_borrow(int borrower, std::uint64_t bytes,
                                       std::uint64_t reserve,
                                       std::uint64_t site,
                                       std::uint64_t attempt) {
  const int donor = elect_donor(borrower, bytes, reserve);
  if (donor < 0) return LeaseAttempt{};
  return try_lease(donor, bytes, site ^ kBorrowSiteSalt, attempt);
}

std::uint64_t MemoryManager::high_water(int node) const {
  return high_water_.at(static_cast<std::size_t>(node));
}

double MemoryManager::pressure_bw_scale(double pressure) const {
  return bw_scale_for(pressure, config_.membus_bandwidth);
}

double MemoryManager::bw_scale_for(double pressure,
                                   double fast_bandwidth) const {
  MCIO_CHECK_GE(pressure, 0.0);
  MCIO_CHECK_LE(pressure, 1.0);
  if (pressure == 0.0) return 1.0;
  // Blend: bytes take (1-p)/fast + p/swap seconds per byte; the scale is
  // relative to the fast path.
  const double swap = config_.swap_bandwidth;
  return 1.0 / ((1.0 - pressure) +
                pressure * (fast_bandwidth / swap));
}

void MemoryManager::release(int node, std::uint64_t bytes) {
  const auto i = static_cast<std::size_t>(node);
  MCIO_CHECK_LT(i, capacity_.size());
  MCIO_CHECK_GE(leased_[i], bytes);
  leased_[i] -= bytes;
  observer_->on_lease_release(this, node, bytes);
}

}  // namespace mcio::node
