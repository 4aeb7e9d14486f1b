// Sparse byte store backing simulated files.
//
// Real-payload runs (tests, examples) persist actual bytes so collective
// drivers can be verified end-to-end by read-back; virtual-payload runs
// skip storage entirely. Unwritten regions read as zero, like a POSIX
// sparse file.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>

#include "util/payload.h"

namespace mcio::pfs {

class Store {
 public:
  static constexpr std::uint64_t kPageSize = 8192;

  /// Writes `data` at `offset`; virtual payloads only extend the size.
  void write(std::uint64_t offset, util::ConstPayload data);

  /// Reads into `out` from `offset`; holes read as zero. Virtual payloads
  /// read nothing (timing-only mode).
  void read(std::uint64_t offset, util::Payload out) const;

  /// Bytes past the last written end.
  std::uint64_t size() const { return size_; }

  /// Number of resident pages (for tests and memory introspection).
  std::size_t resident_pages() const { return pages_.size(); }

  void truncate();

  /// FNV-1a over the logical byte string [0, size()), holes hashed as
  /// zeros. Page order is canonicalized, so two stores with identical
  /// logical contents hash identically regardless of write history —
  /// the byte oracle the differential fuzzer compares drivers with.
  std::uint64_t content_hash() const;

 private:
  using Page = std::array<std::byte, kPageSize>;
  std::unordered_map<std::uint64_t, Page> pages_;
  std::uint64_t size_ = 0;
};

}  // namespace mcio::pfs
