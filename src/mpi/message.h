// Message envelopes, receive slots and per-rank endpoints.
//
// Every receive names its communicator, source and tag, so matching is
// one hash lookup: the endpoint keeps a FIFO per exact
// (comm_id, src, tag) key for unexpected messages and another for posted
// receives. Per-key FIFO order is all MPI's no-overtaking rule asks of
// fully specified receives.
//
// Containers here sit on the per-message hot path, so they are chosen to
// avoid per-element heap nodes: buckets live in an open-addressed table
// and queues are vector-backed rings.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "sim/time.h"
#include "util/payload.h"

namespace mcio::mpi {

struct Status {
  int source = 0;  ///< rank within the communicator
  int tag = 0;
  std::uint64_t bytes = 0;
  sim::SimTime arrival = 0.0;  ///< virtual time data was fully delivered
};

/// A message in flight or queued as unexpected.
struct Envelope {
  std::uint64_t comm_id = 0;
  int src = 0;  ///< source rank within the communicator
  int tag = 0;
  util::OwnedPayload body;
  sim::SimTime arrival = 0.0;
  /// Framed blob (send_blob): the body carries a variable-size payload
  /// whose size header virtually arrived at `header_arrival` — the
  /// receive side replays the old header+body charge pair from these.
  bool framed = false;
  sim::SimTime header_arrival = 0.0;
};

/// A posted (possibly pending) receive.
struct RecvSlot {
  std::uint64_t comm_id = 0;
  int src = 0;
  int tag = 0;
  util::Payload buf;
  /// Blob receive: takes ownership of the whole (framed) envelope instead
  /// of copying into `buf`.
  bool take = false;
  Envelope taken;
  bool done = false;
  Status status;
};

/// Completes a matched receive with `env`: copies bytes (or takes the
/// envelope for blob receives), fills the status and marks it done.
/// Shared by delivery (posted match) and irecv (unexpected match).
inline void fulfill(RecvSlot& slot, Envelope env) {
  slot.status = Status{env.src, env.tag, env.body.size(), env.arrival};
  if (slot.take) {
    MCIO_CHECK_MSG(env.framed,
                   "plain message consumed by a blob receive (tag "
                       << env.tag << ")");
    slot.taken = std::move(env);
  } else {
    MCIO_CHECK_MSG(!env.framed,
                   "framed blob delivered into a plain receive (tag "
                       << env.tag << ")");
    MCIO_CHECK_MSG(env.body.size() <= slot.buf.size,
                   "message (" << env.body.size()
                               << " B) overflows receive buffer ("
                               << slot.buf.size << " B)");
    MCIO_CHECK_MSG(!(slot.buf.data != nullptr && env.body.is_virtual()),
                   "virtual message delivered into a real buffer");
    if (env.body.size() > 0) {
      util::copy_payload(slot.buf.slice(0, env.body.size()),
                         env.body.view());
    }
  }
  slot.done = true;
}

/// Hash key for one matching bucket.
struct MatchKey {
  std::uint64_t comm_id = 0;
  int src = 0;
  int tag = 0;

  friend bool operator==(const MatchKey&, const MatchKey&) = default;
};

struct MatchKeyHash {
  std::size_t operator()(const MatchKey& k) const {
    // Mix the three fields; splitmix64-style finalizer.
    std::uint64_t h = k.comm_id;
    h ^= (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.src))
          << 32) |
         static_cast<std::uint32_t>(k.tag);
    h += 0x9e3779b97f4a7c15ull;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
    return static_cast<std::size_t>(h ^ (h >> 31));
  }
};

/// Vector-backed FIFO: push at the tail, pop by advancing a head index.
/// Capacity is retained across drain cycles, so a steady-state queue stops
/// allocating entirely (std::deque pays a chunk allocation per cycle).
template <typename T>
class RingFifo {
 public:
  bool empty() const { return head_ == items_.size(); }
  T& front() { return items_[head_]; }
  const T& front() const { return items_[head_]; }
  void push_back(T v) { items_.push_back(std::move(v)); }
  void pop_front() {
    if (++head_ == items_.size()) {
      items_.clear();
      head_ = 0;
    }
  }

  /// Visits queued entries front to back (audit sweeps).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = head_; i < items_.size(); ++i) fn(items_[i]);
  }

 private:
  std::vector<T> items_;
  std::size_t head_ = 0;
};

/// Open-addressed hash map from MatchKey to a queue type. Collective tags
/// are never reused, so buckets are born and die constantly: node-based
/// maps pay an allocation per bucket lifetime, while this table marks dead
/// cells as tombstones (keeping the queue's capacity for the next tenant)
/// and compacts them away on rehash.
template <typename V>
class MatchMap {
 public:
  V* find(const MatchKey& k) {
    if (cells_.empty()) return nullptr;
    std::size_t i = MatchKeyHash{}(k) & mask_;
    while (true) {
      Cell& c = cells_[i];
      if (c.state == kEmpty) return nullptr;
      if (c.state == kLive && c.key == k) return &c.value;
      i = (i + 1) & mask_;
    }
  }

  /// The live value for `k`, inserting an empty one if absent.
  V& get_or_create(const MatchKey& k) {
    if (8 * (used_ + 1) > 5 * cells_.size()) grow();
    std::size_t i = MatchKeyHash{}(k) & mask_;
    std::size_t first_tomb = SIZE_MAX;
    while (true) {
      Cell& c = cells_[i];
      if (c.state == kEmpty) {
        const std::size_t at = first_tomb != SIZE_MAX ? first_tomb : i;
        Cell& dst = cells_[at];
        if (dst.state == kEmpty) ++used_;  // tombstones stay counted
        dst.key = k;
        dst.state = kLive;
        ++live_;
        return dst.value;  // empty: fresh, or drained by the last tenant
      }
      if (c.state == kLive && c.key == k) return c.value;
      if (c.state == kTomb && first_tomb == SIZE_MAX) first_tomb = i;
      i = (i + 1) & mask_;
    }
  }

  /// Marks `k` dead. Only called once its queue has drained, so the cell's
  /// value (and its capacity) can be handed to the next key that probes
  /// here.
  void erase(const MatchKey& k) {
    std::size_t i = MatchKeyHash{}(k) & mask_;
    while (true) {
      Cell& c = cells_[i];
      if (c.state == kLive && c.key == k) {
        c.state = kTomb;
        --live_;
        return;
      }
      if (c.state == kEmpty) return;
      i = (i + 1) & mask_;
    }
  }

  /// Visits every live (key, value) cell, in table order (audit sweeps —
  /// deterministic because the hash mixes only message metadata).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Cell& c : cells_) {
      if (c.state == kLive) fn(c.key, c.value);
    }
  }

 private:
  enum : std::uint8_t { kEmpty = 0, kLive = 1, kTomb = 2 };

  struct Cell {
    MatchKey key;
    V value;
    std::uint8_t state = kEmpty;
  };

  void grow() {
    // Double when genuinely full; rehash in place when tombstones are the
    // bulk of the load.
    std::size_t n = cells_.empty() ? 64 : cells_.size();
    if (4 * live_ >= cells_.size()) n *= 2;
    std::vector<Cell> old = std::move(cells_);
    cells_.assign(n, Cell{});
    mask_ = n - 1;
    used_ = live_;
    for (Cell& c : old) {
      if (c.state != kLive) continue;
      std::size_t i = MatchKeyHash{}(c.key) & mask_;
      while (cells_[i].state != kEmpty) i = (i + 1) & mask_;
      cells_[i].key = c.key;
      cells_[i].value = std::move(c.value);
      cells_[i].state = kLive;
    }
  }

  std::vector<Cell> cells_;
  std::size_t mask_ = 0;
  std::size_t live_ = 0;
  std::size_t used_ = 0;  ///< live + tombstone cells
};

/// Per-world-rank message state: the unexpected-message and posted-receive
/// queues, one FIFO per exact (comm_id, src, tag) key.
class Endpoint {
 public:
  /// Number of wait() loops currently parked on this endpoint.
  int waiting = 0;

  /// Queues an envelope that matched no posted receive.
  void push_unexpected(Envelope env) {
    unexpected_.get_or_create(MatchKey{env.comm_id, env.src, env.tag})
        .push_back(std::move(env));
  }

  /// Removes and returns the oldest queued envelope from (comm_id, src,
  /// tag), or nullopt if none.
  std::optional<Envelope> take_unexpected(std::uint64_t comm_id, int src,
                                          int tag) {
    return pop(unexpected_, MatchKey{comm_id, src, tag});
  }

  /// Registers a pending receive.
  void post(std::shared_ptr<RecvSlot> slot) {
    const MatchKey key{slot->comm_id, slot->src, slot->tag};
    posted_.get_or_create(key).push_back(std::move(slot));
  }

  /// Removes and returns the oldest posted receive for `env`'s key, or
  /// nullptr when none is pending.
  std::shared_ptr<RecvSlot> match_posted(const Envelope& env) {
    return pop(posted_, MatchKey{env.comm_id, env.src, env.tag})
        .value_or(nullptr);
  }

  /// Recycled receive slots: a blocking receive allocates a slot, parks,
  /// and frees it before returning, so one warm slot serves millions of
  /// receives. Slots still referenced by a live Request are skipped.
  std::shared_ptr<RecvSlot> acquire_slot() {
    while (!slot_pool_.empty()) {
      std::shared_ptr<RecvSlot> s = std::move(slot_pool_.back());
      slot_pool_.pop_back();
      if (s.use_count() != 1) continue;  // a Request still holds it
      s->take = false;
      s->done = false;
      s->taken = Envelope{};
      s->status = Status{};
      return s;
    }
    return std::make_shared<RecvSlot>();
  }

  void release_slot(std::shared_ptr<RecvSlot> s) {
    if (slot_pool_.size() < 1024) slot_pool_.push_back(std::move(s));
  }

  /// End-of-run audit sweep: visits every delivered envelope still queued
  /// as unexpected (no receive ever matched it).
  template <typename Fn>
  void for_each_orphan_message(Fn&& fn) const {
    unexpected_.for_each([&fn](const MatchKey&, const RingFifo<Envelope>& q) {
      q.for_each(fn);
    });
  }

  /// End-of-run audit sweep: visits every posted receive still pending
  /// (no message ever matched it), as RecvSlots.
  template <typename Fn>
  void for_each_orphan_recv(Fn&& fn) const {
    posted_.for_each([&fn](const MatchKey&,
                           const RingFifo<std::shared_ptr<RecvSlot>>& q) {
      q.for_each([&fn](const std::shared_ptr<RecvSlot>& s) { fn(*s); });
    });
  }

 private:
  /// Pops the front of `key`'s queue, dropping the key once it drains.
  template <typename T>
  static std::optional<T> pop(MatchMap<RingFifo<T>>& map,
                              const MatchKey& key) {
    RingFifo<T>* q = map.find(key);
    if (q == nullptr) return std::nullopt;
    T v = std::move(q->front());
    q->pop_front();
    if (q->empty()) map.erase(key);
    return v;
  }

  MatchMap<RingFifo<Envelope>> unexpected_;
  MatchMap<RingFifo<std::shared_ptr<RecvSlot>>> posted_;
  std::vector<std::shared_ptr<RecvSlot>> slot_pool_;
};

}  // namespace mcio::mpi
