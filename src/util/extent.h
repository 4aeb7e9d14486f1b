// Byte-range (extent) algebra.
//
// Collective I/O is, at its core, interval bookkeeping: flattened file
// views, file domains, aggregation windows, and the intersections between
// them. Everything here works on half-open ranges [offset, offset+len).
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <utility>
#include <vector>

namespace mcio::util {

/// Half-open byte range [offset, offset + len).
struct Extent {
  std::uint64_t offset = 0;
  std::uint64_t len = 0;

  std::uint64_t end() const { return offset + len; }
  bool empty() const { return len == 0; }
  bool contains(std::uint64_t pos) const {
    return pos >= offset && pos < end();
  }
  bool contains(const Extent& other) const {
    return other.empty() ||
           (other.offset >= offset && other.end() <= end());
  }
  bool overlaps(const Extent& other) const {
    return offset < other.end() && other.offset < end();
  }

  friend bool operator==(const Extent&, const Extent&) = default;
};

std::ostream& operator<<(std::ostream& os, const Extent& e);

/// Intersection of two extents; nullopt when disjoint (or either empty).
std::optional<Extent> intersect(const Extent& a, const Extent& b);

/// A normalized list of extents: sorted by offset, pairwise disjoint, with
/// adjacent runs merged. The canonical representation of "the set of bytes
/// a process touches".
class ExtentList {
 public:
  ExtentList() = default;

  /// Builds a normalized list from arbitrary input (may overlap/unsorted).
  /// Input already in normal form is adopted after one read-only pass;
  /// other input sorted by (offset, len) costs O(n), unsorted input
  /// O(n log n). Coalesces in place and adopts the argument's storage:
  /// it allocates nothing itself.
  static ExtentList normalize(std::vector<Extent> extents);

  /// Inserts one extent, keeping the list normalized.
  void add(const Extent& e);

  /// Union with another list, in O(k + other.size()) where k counts this
  /// list's runs from other's first offset on: only that suffix moves and
  /// is coalesced again, so appending past the end costs O(other.size()).
  void merge(const ExtentList& other);

  const std::vector<Extent>& runs() const& { return runs_; }
  /// Moves the runs out of a list about to die, so
  /// `normalize(...).runs()` hands its vector over instead of copying it.
  std::vector<Extent> runs() && { return std::move(runs_); }
  bool empty() const { return runs_.empty(); }
  std::size_t size() const { return runs_.size(); }

  std::uint64_t total_bytes() const;

  /// Smallest extent covering everything; empty extent for empty lists.
  Extent bounds() const;

  /// Bytes of this list falling inside `window`.
  ExtentList clipped(const Extent& window) const;

  /// True when every byte of `e` is in this list.
  bool covers(const Extent& e) const;

  /// True when the list is one contiguous run (or empty).
  bool contiguous() const { return runs_.size() <= 1; }

  /// Empties the list, keeping capacity (for scratch reuse).
  void clear() { runs_.clear(); }

  friend bool operator==(const ExtentList&, const ExtentList&) = default;

 private:
  friend class ExtentCursor;
  std::vector<Extent> runs_;
};

/// Monotone clipping cursor over a normalized extent list: produces the
/// same result as ExtentList::clipped(window), but windows must be queried
/// in nondecreasing offset order. Each query skips the runs that end
/// before its window, copies the runs that meet it with one bulk copy and
/// clamps the two ends, making a sweep over W windows and R runs
/// O(W + R) instead of O(W · R). The referenced list must outlive the
/// cursor and stay unmodified.
class ExtentCursor {
 public:
  explicit ExtentCursor(const ExtentList& list) : runs_(&list.runs()) {}

  /// Bytes of the list inside `window`; equivalent to list.clipped(window).
  ExtentList clipped(const Extent& window) {
    ExtentList out;
    clipped_into(window, &out);
    return out;
  }

  /// As clipped(), reusing `out`'s storage.
  void clipped_into(const Extent& window, ExtentList* out);

 private:
  const std::vector<Extent>* runs_;
  std::size_t idx_ = 0;
};

std::ostream& operator<<(std::ostream& os, const ExtentList& l);

/// A fragment of an I/O request: `len` bytes at `file_offset` that live at
/// `buf_offset` within the owning process's (conceptually packed) buffer.
struct Piece {
  std::uint64_t file_offset = 0;
  std::uint64_t buf_offset = 0;
  std::uint64_t len = 0;

  friend bool operator==(const Piece&, const Piece&) = default;
};

std::ostream& operator<<(std::ostream& os, const Piece& p);

/// Monotone cursor over a request's file extents, sorted and disjoint,
/// whose packed buffer follows their order: yields the pieces inside each
/// queried window with their file and buffer offsets. Windows must be
/// queried in increasing offset order (amortized O(1) per extent). The
/// referenced extents must outlive the cursor and stay unmodified.
class PieceCursor {
 public:
  explicit PieceCursor(const std::vector<Extent>& extents)
      : extents_(&extents) {}

  /// Pieces inside `window`, replacing `out`'s contents (caller-owned
  /// scratch).
  void advance(const Extent& window, std::vector<Piece>* out);

 private:
  const std::vector<Extent>* extents_;
  std::size_t idx_ = 0;
  std::uint64_t buf_prefix_ = 0;  ///< packed bytes before extents_[idx_]
};

}  // namespace mcio::util
