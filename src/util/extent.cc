#include "util/extent.h"

#include <algorithm>

#include "util/check.h"

namespace mcio::util {

std::ostream& operator<<(std::ostream& os, const Extent& e) {
  return os << "[" << e.offset << "," << e.end() << ")";
}

std::optional<Extent> intersect(const Extent& a, const Extent& b) {
  const std::uint64_t lo = std::max(a.offset, b.offset);
  const std::uint64_t hi = std::min(a.end(), b.end());
  if (lo >= hi) return std::nullopt;
  return Extent{lo, hi - lo};
}

namespace {

/// Merges the overlapping and adjacent runs of offset-sorted `runs` in
/// place, from index `from` on: the runs before it must already be
/// coalesced and not touch it. The coalesced prefix is only read.
void coalesce(std::vector<Extent>* runs, std::size_t from = 0) {
  std::vector<Extent>& r = *runs;
  std::size_t i = from + 1;
  while (i < r.size() && r[i].offset > r[i - 1].end()) ++i;
  std::size_t last = i - 1;
  for (; i < r.size(); ++i) {
    Extent& run = r[last];
    const Extent& next = r[i];
    if (next.offset <= run.end()) {
      run.len = std::max(run.end(), next.end()) - run.offset;
    } else {
      r[++last] = next;
    }
  }
  if (!r.empty()) r.resize(last + 1);
}

/// True when `runs` is already in normal form: every run non-empty and
/// starting past the previous run's end. One read-only pass.
bool strictly_normalized(const std::vector<Extent>& runs) {
  std::uint64_t prev_end = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Extent& e = runs[i];
    if (e.len == 0 || (i > 0 && e.offset <= prev_end)) return false;
    prev_end = e.end();
  }
  return true;
}

}  // namespace

ExtentList ExtentList::normalize(std::vector<Extent> extents) {
  // Flattened datatypes, decoded wire lists and plans arrive normalized:
  // one read-only pass adopts them as they are.
  if (!strictly_normalized(extents)) {
    std::erase_if(extents, [](const Extent& e) { return e.empty(); });
    const auto by_offset_then_len = [](const Extent& a, const Extent& b) {
      return a.offset != b.offset ? a.offset < b.offset : a.len < b.len;
    };
    if (!std::is_sorted(extents.begin(), extents.end(), by_offset_then_len)) {
      std::sort(extents.begin(), extents.end(), by_offset_then_len);
    }
    coalesce(&extents);
  }
  ExtentList out;  // adopts the argument's storage
  out.runs_ = std::move(extents);
  return out;
}

void ExtentList::add(const Extent& e) {
  if (e.empty()) return;
  // Find first run ending at or after e.offset (candidates for merging).
  auto it = std::lower_bound(
      runs_.begin(), runs_.end(), e.offset,
      [](const Extent& r, std::uint64_t off) { return r.end() < off; });
  Extent merged = e;
  auto first = it;
  while (it != runs_.end() && it->offset <= merged.end()) {
    const std::uint64_t new_end = std::max(merged.end(), it->end());
    merged.offset = std::min(merged.offset, it->offset);
    merged.len = new_end - merged.offset;
    ++it;
  }
  it = runs_.erase(first, it);
  runs_.insert(it, merged);
}

void ExtentList::merge(const ExtentList& other) {
  if (&other == this || other.runs_.empty()) return;
  const std::vector<Extent>& in = other.runs_;
  if (runs_.empty() || runs_.back().end() < in.front().offset) {
    runs_.insert(runs_.end(), in.begin(), in.end());
    return;
  }
  // Both lists are sorted: merge them by offset from the back into
  // runs_' grown tail, in O(n + m) — inserting run by run would shift the
  // tail once per interleaved run. The loop leaves runs_[0, i) in place,
  // still coalesced, so coalescing starts at the run before the first
  // one that moved.
  std::size_t i = runs_.size();
  std::size_t j = in.size();
  runs_.resize(i + j);
  for (std::size_t k = i + j; j > 0;) {
    --k;
    if (i > 0 && runs_[i - 1].offset > in[j - 1].offset) {
      runs_[k] = runs_[--i];
    } else {
      runs_[k] = in[--j];
    }
  }
  coalesce(&runs_, i > 0 ? i - 1 : 0);
}

std::uint64_t ExtentList::total_bytes() const {
  std::uint64_t total = 0;
  for (const Extent& e : runs_) total += e.len;
  return total;
}

Extent ExtentList::bounds() const {
  if (runs_.empty()) return Extent{};
  return Extent{runs_.front().offset,
                runs_.back().end() - runs_.front().offset};
}

ExtentList ExtentList::clipped(const Extent& window) const {
  ExtentList out;
  auto it = std::lower_bound(
      runs_.begin(), runs_.end(), window.offset,
      [](const Extent& r, std::uint64_t off) { return r.end() <= off; });
  for (; it != runs_.end() && it->offset < window.end(); ++it) {
    if (auto x = intersect(*it, window)) out.runs_.push_back(*x);
  }
  return out;
}

void ExtentCursor::clipped_into(const Extent& window, ExtentList* out) {
  const std::vector<Extent>& runs = *runs_;
  const std::uint64_t end = window.end();
  while (idx_ < runs.size() && runs[idx_].end() <= window.offset) ++idx_;
  std::size_t hi = idx_;
  if (!window.empty()) {
    while (hi < runs.size() && runs[hi].offset < end) ++hi;
  }
  // Runs [idx_, hi) all meet the window: copy them at once, then clamp
  // the two that may stick out of it.
  std::vector<Extent>& clip = out->runs_;
  clip.assign(runs.begin() + static_cast<std::ptrdiff_t>(idx_),
              runs.begin() + static_cast<std::ptrdiff_t>(hi));
  if (clip.empty()) return;
  if (clip.front().offset < window.offset) {
    clip.front().len = clip.front().end() - window.offset;
    clip.front().offset = window.offset;
  }
  if (clip.back().end() > end) clip.back().len = end - clip.back().offset;
}

bool ExtentList::covers(const Extent& e) const {
  if (e.empty()) return true;
  auto it = std::lower_bound(
      runs_.begin(), runs_.end(), e.offset,
      [](const Extent& r, std::uint64_t off) { return r.end() <= off; });
  return it != runs_.end() && it->contains(e);
}

std::ostream& operator<<(std::ostream& os, const ExtentList& l) {
  os << "{";
  for (std::size_t i = 0; i < l.runs().size(); ++i) {
    if (i > 0) os << ", ";
    os << l.runs()[i];
  }
  return os << "}";
}

std::ostream& operator<<(std::ostream& os, const Piece& p) {
  return os << "{file=" << p.file_offset << ", buf=" << p.buf_offset
            << ", len=" << p.len << "}";
}

void PieceCursor::advance(const Extent& window, std::vector<Piece>* out) {
  const std::vector<Extent>& ext = *extents_;
  while (idx_ < ext.size() && ext[idx_].end() <= window.offset) {
    buf_prefix_ += ext[idx_].len;
    ++idx_;
  }
  out->clear();
  const std::uint64_t end = window.end();
  std::uint64_t prefix = buf_prefix_;
  for (std::size_t j = idx_; j < ext.size() && ext[j].offset < end; ++j) {
    const Extent& e = ext[j];
    const std::uint64_t lo = std::max(e.offset, window.offset);
    const std::uint64_t hi = std::min(e.end(), end);
    if (lo < hi) out->push_back(Piece{lo, prefix + (lo - e.offset), hi - lo});
    prefix += e.len;
  }
}

}  // namespace mcio::util
