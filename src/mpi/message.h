// Message envelopes, the envelope slab, receive slots and per-rank
// endpoints.
//
// Every receive names its communicator, source and tag, so matching is
// one hash lookup: the endpoint keeps a FIFO per exact
// (comm_id, src, tag) key for unexpected messages and another for posted
// receives. A message is matched when it is sent (Machine::deliver), so
// per-key FIFO order is send order: MPI's no-overtaking rule for fully
// specified receives.
//
// Everything here sits on the per-message hot path and allocates nothing
// in steady state. A message that finds its receive posted completes it
// straight from the envelope. Any other is parked in the machine's
// EnvelopeSlab and named by a 4-byte parcel index from then on: the
// unexpected FIFO chains it, and a blob receive takes it. Both FIFOs are
// intrusive (linked through the slab's parcels and through pooled receive
// slots), and the buckets live in an open-addressed table that rehashes
// without allocating.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <type_traits>
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

/// Names no parcel: the end of a FIFO chain or of the free list.
inline constexpr std::uint32_t kNoParcel = UINT32_MAX;

/// The envelopes of a run that wait for their receive, in one
/// machine-wide slab: a parcel is claimed when a message queues as
/// unexpected or a blob receive takes it, named by its index while it
/// waits, and released when the receive consumes it. Released parcels
/// chain into an intrusive free list, so a warm slab serves every later
/// message without allocating.
class EnvelopeSlab {
 public:
  /// Parks `env`; returns its parcel.
  std::uint32_t add(Envelope env) {
    std::uint32_t p = free_;
    if (p != kNoParcel) {
      free_ = parcels_[p].next;
      parcels_[p].env = std::move(env);
    } else {
      MCIO_CHECK_LT(parcels_.size(), std::size_t{kNoParcel});
      p = static_cast<std::uint32_t>(parcels_.size());
      parcels_.push_back(Parcel{std::move(env)});
    }
    parcels_[p].next = kNoParcel;
    return p;
  }

  Envelope& env(std::uint32_t p) { return parcels_[p].env; }
  const Envelope& env(std::uint32_t p) const { return parcels_[p].env; }
  /// The parcel's link: the next parcel of its unexpected FIFO.
  std::uint32_t& next(std::uint32_t p) { return parcels_[p].next; }
  std::uint32_t next(std::uint32_t p) const { return parcels_[p].next; }

  /// Frees `p`, dropping its body (real bytes or a shared buffer).
  void release(std::uint32_t p) {
    parcels_[p].env.body = util::OwnedPayload{};
    parcels_[p].next = free_;
    free_ = p;
  }

  /// Drops every parcel (run start).
  void clear() {
    parcels_.clear();
    free_ = kNoParcel;
  }

 private:
  struct Parcel {
    Envelope env;
    std::uint32_t next = kNoParcel;  ///< FIFO link, or free-list link
  };

  std::vector<Parcel> parcels_;
  std::uint32_t free_ = kNoParcel;
};

/// A posted (possibly pending) receive.
struct RecvSlot {
  std::uint64_t comm_id = 0;
  int src = 0;
  int tag = 0;
  util::Payload buf;
  /// Blob receive: takes the whole (framed) parcel instead of copying
  /// into `buf`.
  bool take = false;
  std::uint32_t taken = kNoParcel;  ///< the parcel a blob receive took
  bool done = false;
  /// Its owner is parked until this receive is matched; the matching
  /// send wakes it at the arrival.
  bool parked = false;
  Status status;
  RecvSlot* next = nullptr;  ///< posted-FIFO link, or free-list link
};

/// Completes a matched receive with `env`: fills the status and, for a
/// plain receive, copies the bytes into its buffer. A blob receive keeps
/// the envelope itself instead (see fulfill()).
inline void complete(RecvSlot& slot, const Envelope& env) {
  slot.status = Status{env.src, env.tag, env.body.size(), env.arrival};
  if (slot.take) {
    MCIO_CHECK_MSG(env.framed,
                   "plain message consumed by a blob receive (tag "
                       << env.tag << ")");
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

/// Completes a matched receive with parcel `p`: a blob receive takes the
/// parcel, a plain one copies it and frees it.
inline void fulfill(RecvSlot& slot, EnvelopeSlab& slab, std::uint32_t p) {
  complete(slot, slab.env(p));
  if (slot.take) {
    slot.taken = p;
  } else {
    slab.release(p);
  }
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

/// Open-addressed hash map from MatchKey to a small trivially copyable
/// value (an intrusive FIFO's head and tail). Collective tags are never
/// reused, so buckets are born and die constantly: dead cells become
/// tombstones, compacted away on rehash. A rehash that keeps the table
/// size (tombstones were the bulk of the load) copies the live cells
/// through a retained per-thread spare array, so a steady-state table
/// never allocates.
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

  /// The live value for `k`, inserting a default one if absent.
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
        dst = Cell{k, V{}, kLive};
        ++live_;
        return dst.value;
      }
      if (c.state == kLive && c.key == k) return c.value;
      if (c.state == kTomb && first_tomb == SIZE_MAX) first_tomb = i;
      i = (i + 1) & mask_;
    }
  }

  /// Marks `k` dead. Only called once its queue has drained.
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
  static_assert(std::is_trivially_copyable_v<Cell>);

  void grow() {
    // Double when genuinely full; rehash at the same size when tombstones
    // are the bulk of the load.
    std::size_t n = cells_.empty() ? 64 : cells_.size();
    if (4 * live_ >= cells_.size()) n *= 2;
    // The spare is shared by every table on this thread: the engine runs
    // a whole simulation on one thread and rehashes one table at a time.
    thread_local std::vector<Cell> spare;
    spare.clear();
    for (const Cell& c : cells_) {
      if (c.state == kLive) spare.push_back(c);
    }
    if (cells_.size() == n) {
      std::fill(cells_.begin(), cells_.end(), Cell{});
    } else {
      cells_.assign(n, Cell{});
    }
    mask_ = n - 1;
    used_ = live_;
    for (const Cell& c : spare) {
      std::size_t i = MatchKeyHash{}(c.key) & mask_;
      while (cells_[i].state != kEmpty) i = (i + 1) & mask_;
      cells_[i] = c;
    }
  }

  std::vector<Cell> cells_;
  std::size_t mask_ = 0;
  std::size_t live_ = 0;
  std::size_t used_ = 0;  ///< live + tombstone cells
};

/// Per-world-rank message state: the unexpected-message and posted-receive
/// FIFOs, one per exact (comm_id, src, tag) key, and the rank's pool of
/// receive slots.
class Endpoint {
 public:
  Endpoint() = default;
  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;
  Endpoint(Endpoint&&) = default;
  Endpoint& operator=(Endpoint&&) = default;

  /// Queues parcel `p`, which matched no posted receive, under `key`.
  /// Messages match in send order, so one key's messages must also
  /// arrive in send order: a message may not overtake the one queued
  /// before it (say, one sent over shm, then one over the transport).
  void push_unexpected(const MatchKey& key, std::uint32_t p,
                       EnvelopeSlab& slab) {
    ParcelFifo& q = unexpected_.get_or_create(key);
    if (q.head == kNoParcel) {
      q.head = p;
    } else {
      MCIO_CHECK_MSG(slab.env(p).arrival >= slab.env(q.tail).arrival,
                     "message (tag " << key.tag << ") overtakes the one "
                                     << "sent before it on its key");
      slab.next(q.tail) = p;
    }
    q.tail = p;
    slab.next(p) = kNoParcel;
  }

  /// Removes and returns the oldest parcel queued under `key`, or
  /// kNoParcel if none.
  std::uint32_t take_unexpected(const MatchKey& key,
                                const EnvelopeSlab& slab) {
    ParcelFifo* q = unexpected_.find(key);
    if (q == nullptr) return kNoParcel;
    const std::uint32_t p = q->head;
    q->head = slab.next(p);
    if (q->head == kNoParcel) unexpected_.erase(key);
    return p;
  }

  /// Registers a pending receive.
  void post(RecvSlot* slot) {
    SlotFifo& q =
        posted_.get_or_create(MatchKey{slot->comm_id, slot->src, slot->tag});
    if (q.head == nullptr) {
      q.head = slot;
    } else {
      q.tail->next = slot;
    }
    q.tail = slot;
    slot->next = nullptr;
  }

  /// Removes and returns the oldest posted receive for `key`, or nullptr
  /// when none is pending.
  RecvSlot* match_posted(const MatchKey& key) {
    SlotFifo* q = posted_.find(key);
    if (q == nullptr) return nullptr;
    RecvSlot* slot = q->head;
    q->head = slot->next;
    if (q->head == nullptr) posted_.erase(key);
    return slot;
  }

  /// A fresh receive slot from the pool: a blocking receive takes one,
  /// parks, and gives it back before returning, so one warm slot serves
  /// millions of receives.
  RecvSlot* acquire_slot() {
    if (free_slots_ == nullptr) return &slots_.emplace_back();
    RecvSlot* s = free_slots_;
    free_slots_ = s->next;
    *s = RecvSlot{};
    return s;
  }

  /// Returns a completed slot to the pool.
  void release_slot(RecvSlot* s) {
    s->next = free_slots_;
    free_slots_ = s;
  }

  /// End-of-run audit sweep: visits every delivered parcel still queued
  /// as unexpected (no receive ever matched it).
  template <typename Fn>
  void for_each_orphan_message(const EnvelopeSlab& slab, Fn&& fn) const {
    unexpected_.for_each([&](const MatchKey&, const ParcelFifo& q) {
      for (std::uint32_t p = q.head; p != kNoParcel; p = slab.next(p)) {
        fn(slab.env(p));
      }
    });
  }

  /// End-of-run audit sweep: visits every posted receive still pending
  /// (no message ever matched it).
  template <typename Fn>
  void for_each_orphan_recv(Fn&& fn) const {
    posted_.for_each([&fn](const MatchKey&, const SlotFifo& q) {
      for (const RecvSlot* s = q.head; s != nullptr; s = s->next) fn(*s);
    });
  }

 private:
  struct ParcelFifo {
    std::uint32_t head = kNoParcel;
    std::uint32_t tail = kNoParcel;
  };
  struct SlotFifo {
    RecvSlot* head = nullptr;
    RecvSlot* tail = nullptr;
  };

  MatchMap<ParcelFifo> unexpected_;
  MatchMap<SlotFifo> posted_;
  /// Slot storage; a deque keeps every slot's address stable.
  std::deque<RecvSlot> slots_;
  RecvSlot* free_slots_ = nullptr;
};

}  // namespace mcio::mpi
