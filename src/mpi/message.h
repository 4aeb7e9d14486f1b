// Message envelopes, the envelope slab, receive slots and the machine's
// one match table.
//
// Every rank runs on the one world communicator and every receive names
// its source and tag, so matching is one hash probe into a single
// machine-wide table keyed by the exact (dst, src, tag), in a 24-byte
// cell. A message is matched when it is sent (Machine::deliver), so a
// key never holds unexpected messages and posted receives at the same
// time: its cell keeps one signed FIFO of whichever side waits. Per-key
// FIFO order is send order: MPI's no-overtaking rule for fully
// specified receives.
//
// Everything here sits on the per-message hot path and allocates nothing
// in steady state. A message that finds its receive posted completes it
// straight from the envelope. Any other is parked in the machine's
// EnvelopeSlab and named by a 4-byte parcel index from then on; a posted
// receive is named by the 4-byte index of its pooled RecvSlot. A cell's
// FIFO is intrusive, linked through the parcels or through the slots,
// and the table holds only live keys, so it allocates only to double.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.h"
#include "util/payload.h"

namespace mcio::mpi {

struct Status {
  int source = 0;
  int tag = 0;
  std::uint64_t bytes = 0;
  sim::SimTime arrival = 0.0;  ///< virtual time data was fully delivered
};

/// Names no parcel or receive slot: the end of a FIFO chain or of a free
/// list.
inline constexpr std::uint32_t kNone = UINT32_MAX;

/// A message in flight or queued as unexpected.
struct Envelope {
  int src = 0;
  int tag = 0;
  util::OwnedPayload body;
  sim::SimTime arrival = 0.0;
  /// Framed blob (send_blob): the body carries a variable-size payload
  /// whose size header virtually arrived at `header_arrival` — the
  /// receive side replays the old header+body charge pair from these.
  bool framed = false;
  sim::SimTime header_arrival = 0.0;
  /// As a parcel: its match-cell FIFO link, or free-list link.
  std::uint32_t next = kNone;
};

/// A posted (possibly pending) receive.
struct RecvSlot {
  int src = 0;
  int tag = 0;
  util::Payload buf;
  /// Blob receive: takes the whole (framed) parcel instead of copying
  /// into `buf`.
  bool take = false;
  std::uint32_t taken = kNone;  ///< the parcel a blob receive took
  bool done = false;
  /// Its owner is parked until this receive is matched; the matching
  /// send wakes it at the arrival.
  bool parked = false;
  Status status;
  std::uint32_t next = kNone;  ///< match-cell FIFO link, or free-list link
};

/// A run's envelopes or receives that wait, in one machine-wide pool: an
/// item is claimed when a message queues as unexpected, a blob receive
/// takes it or a receive is posted, named by its index while it waits,
/// and released when it is consumed. Released items chain into an
/// intrusive free list, so a warm pool serves every later message and
/// receive without allocating. A deque keeps every item's address
/// stable for the rank parked on it.
template <typename T>
class Pool {
 public:
  /// Claims an item holding `item`; returns its index.
  std::uint32_t add(T item) {
    std::uint32_t i = free_;
    if (i != kNone) {
      free_ = items_[i].next;
      items_[i] = std::move(item);
    } else {
      MCIO_CHECK_LT(items_.size(), std::size_t{kNone});
      i = static_cast<std::uint32_t>(items_.size());
      items_.push_back(std::move(item));
    }
    items_[i].next = kNone;
    return i;
  }

  T& operator[](std::uint32_t i) { return items_[i]; }

  /// Frees `i`, dropping what it holds (an envelope's real bytes or
  /// shared buffer).
  void release(std::uint32_t i) {
    items_[i] = T{};
    items_[i].next = free_;
    free_ = i;
  }

  /// Drops every item (run start).
  void clear() {
    items_.clear();
    free_ = kNone;
  }

 private:
  std::deque<T> items_;
  std::uint32_t free_ = kNone;
};

/// The envelopes that wait for their receive, named by parcel index.
using EnvelopeSlab = Pool<Envelope>;
/// The posted receives, named by slot index.
using SlotPool = Pool<RecvSlot>;

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
  complete(slot, slab[p]);
  if (slot.take) {
    slot.taken = p;
  } else {
    slab.release(p);
  }
}

/// The key of one match cell: the receiving rank and the exact (source,
/// tag) its receive names.
struct MatchKey {
  std::uint32_t dst = 0;
  std::uint32_t src = 0;
  std::uint32_t tag = 0;
};

/// The machine's one open-addressed match table: a cell per live key,
/// holding one intrusive FIFO of whichever side waits under it, parcels
/// of the EnvelopeSlab or slots of the SlotPool. A send or a receive
/// makes one probe; it pops when the other side waits and appends
/// otherwise. A cell is free exactly when its FIFO is empty. Collective
/// tags are never reused, so cells are born and die constantly: a cell
/// that empties is erased by backward shift, leaving no tombstone, and
/// the table doubles only when live keys would pass 5/8 of its cells.
class MatchTable {
 public:
  /// Which side waits in a cell's FIFO.
  enum Side : std::uint8_t { kMessages = 0, kReceives = 1 };

  struct Cell {
    std::uint32_t dst = 0;
    std::uint32_t src = 0;
    std::uint32_t tag = 0;
    std::uint32_t head = kNone;  ///< oldest waiter; kNone when free
    std::uint32_t tail = kNone;  ///< newest waiter
    std::uint8_t side = kMessages;

    /// Whether `s` waits here, so a probe from the other side pops.
    bool waits(Side s) const { return head != kNone && side == s; }
  };

  /// The cell of `k`, inserting an empty one if absent; the caller
  /// appends to an inserted cell before the next probe. The reference
  /// holds until the next probe or pop.
  Cell& probe(const MatchKey& k) {
    if (8 * (live_ + 1) > 5 * cells_.size()) grow();
    for (std::size_t i = hash(k) & mask_;; i = (i + 1) & mask_) {
      Cell& c = cells_[i];
      if (c.head == kNone) {
        c = Cell{k.dst, k.src, k.tag};
        ++live_;
        return c;
      }
      if (c.dst == k.dst && c.src == k.src && c.tag == k.tag) return c;
    }
  }

  /// Removes and returns the head of `c`'s FIFO, whose link is `next`;
  /// erases `c` when that empties it.
  std::uint32_t pop(Cell& c, std::uint32_t next) {
    const std::uint32_t i = c.head;
    c.head = next;
    if (next == kNone) erase(static_cast<std::size_t>(&c - cells_.data()));
    return i;
  }

  /// Appends `i` to `c`'s FIFO as a waiting `side`. The caller has
  /// already linked `c`'s old tail, if any, to `i`.
  static void append(Cell& c, Side side, std::uint32_t i) {
    if (c.head == kNone) {
      c.head = i;
      c.side = side;
    }
    c.tail = i;
  }

  /// Visits every live cell, in table order (the end-of-run orphan
  /// sweep — deterministic because the hash mixes only message metadata).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Cell& c : cells_) {
      if (c.head != kNone) fn(c);
    }
  }

  /// Drops every cell, keeping the storage (run start).
  void clear() {
    std::fill(cells_.begin(), cells_.end(), Cell{});
    live_ = 0;
  }

 private:
  static_assert(std::is_trivially_copyable_v<Cell>);
  static_assert(sizeof(Cell) == 24);

  static std::size_t hash(const MatchKey& k) {
    // Fold the three fields, then a splitmix64 finalizer.
    std::uint64_t h = ((static_cast<std::uint64_t>(k.dst) << 32) | k.src) ^
                      (k.tag * 0x9e3779b97f4a7c15ull);
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
    return static_cast<std::size_t>(h ^ (h >> 31));
  }

  /// The slot where a probe for `c`'s key starts.
  std::size_t home(const Cell& c) const {
    return hash(MatchKey{c.dst, c.src, c.tag}) & mask_;
  }

  /// Frees cell `hole` by backward shift: each later cell of its probe
  /// run moves back into the hole unless its home slot lies cyclically
  /// in (hole, its slot], where the move would hide it from its probe.
  void erase(std::size_t hole) {
    for (std::size_t j = (hole + 1) & mask_; cells_[j].head != kNone;
         j = (j + 1) & mask_) {
      if (((j - home(cells_[j])) & mask_) >= ((j - hole) & mask_)) {
        cells_[hole] = cells_[j];
        hole = j;
      }
    }
    cells_[hole].head = kNone;
    --live_;
  }

  /// Doubles the table (64 cells at first) and reinserts the live cells;
  /// the old array is alive only until they are copied out of it.
  void grow() {
    const std::vector<Cell> old = std::exchange(
        cells_, std::vector<Cell>(cells_.empty() ? 64 : 2 * cells_.size()));
    mask_ = cells_.size() - 1;
    for (const Cell& c : old) {
      if (c.head == kNone) continue;
      std::size_t i = home(c);
      while (cells_[i].head != kNone) i = (i + 1) & mask_;
      cells_[i] = c;
    }
  }

  std::vector<Cell> cells_;
  std::size_t mask_ = 0;
  std::size_t live_ = 0;
};

}  // namespace mcio::mpi
