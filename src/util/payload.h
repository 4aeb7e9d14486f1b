// Real and virtual data buffers.
//
// Correctness tests move real bytes end to end; the paper-scale benches
// (32 GB files, 1080 ranks) run the very same code paths with *virtual*
// payloads, where only sizes flow through the simulator. Every copy helper
// here is a no-op on virtual data, so the two modes share one code path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "util/check.h"

namespace mcio::util {

/// A mutable byte span that may be virtual (`data == nullptr`): the bytes
/// exist only as a size. Non-owning.
struct Payload {
  std::byte* data = nullptr;
  std::uint64_t size = 0;

  static Payload real(std::byte* p, std::uint64_t n) { return {p, n}; }
  static Payload of(std::vector<std::byte>& v) {
    return {v.data(), v.size()};
  }
  /// Size-only payload: moves through the simulator without storage.
  static Payload virtual_bytes(std::uint64_t n) { return {nullptr, n}; }

  bool is_virtual() const { return data == nullptr && size > 0; }

  /// Sub-range [off, off+len); virtual payloads slice to virtual.
  Payload slice(std::uint64_t off, std::uint64_t len) const {
    MCIO_CHECK_LE(off + len, size);
    return {data == nullptr ? nullptr : data + off, len};
  }
};

/// Immutable counterpart of Payload.
struct ConstPayload {
  const std::byte* data = nullptr;
  std::uint64_t size = 0;

  static ConstPayload real(const std::byte* p, std::uint64_t n) {
    return {p, n};
  }
  static ConstPayload of(const std::vector<std::byte>& v) {
    return {v.data(), v.size()};
  }
  static ConstPayload virtual_bytes(std::uint64_t n) { return {nullptr, n}; }
  // Implicit view of a mutable payload.
  ConstPayload() = default;
  ConstPayload(const Payload& p) : data(p.data), size(p.size) {}
  ConstPayload(const std::byte* p, std::uint64_t n) : data(p), size(n) {}

  bool is_virtual() const { return data == nullptr && size > 0; }

  ConstPayload slice(std::uint64_t off, std::uint64_t len) const {
    MCIO_CHECK_LE(off + len, size);
    return {data == nullptr ? nullptr : data + off, len};
  }
};

/// Copies src into dst when both are real; sizes must match either way.
inline void copy_payload(Payload dst, ConstPayload src) {
  MCIO_CHECK_EQ(dst.size, src.size);
  if (dst.data != nullptr && src.data != nullptr && dst.size > 0) {
    std::memcpy(dst.data, src.data, dst.size);
  }
}

/// Packs `runs` (anything with a `len`: extents, pieces) back to back
/// into `dst`, reading each run `r` from `src` at offset `at(r)`.
template <typename Runs, typename At>
void gather(Payload dst, ConstPayload src, const Runs& runs, const At& at) {
  if (dst.data == nullptr || src.data == nullptr) return;
  std::uint64_t off = 0;
  for (const auto& r : runs) {
    std::memcpy(dst.data + off, src.data + at(r), r.len);
    off += r.len;
  }
}

/// The inverse of gather: unpacks `src`'s back-to-back runs into `dst`,
/// each run `r` at offset `at(r)`.
template <typename Runs, typename At>
void scatter(Payload dst, ConstPayload src, const Runs& runs, const At& at) {
  if (dst.data == nullptr || src.data == nullptr) return;
  std::uint64_t off = 0;
  for (const auto& r : runs) {
    std::memcpy(dst.data + at(r), src.data + off, r.len);
    off += r.len;
  }
}

/// An immutable byte buffer shared by reference: a broadcast hop forwards
/// the pointer instead of copying the bytes. `decoded` optionally carries
/// one decoded form of the bytes, attached by the producer before the
/// buffer is shared, so every holder reuses a single decode.
struct SharedBuffer {
  std::vector<std::byte> bytes;
  std::shared_ptr<const void> decoded;
};
using SharedBytes = std::shared_ptr<const SharedBuffer>;

/// Owned message body: stores real bytes when the source was real, or
/// shares an immutable buffer without copying it.
class OwnedPayload {
 public:
  OwnedPayload() = default;
  explicit OwnedPayload(ConstPayload src) : size_(src.size) {
    if (src.data != nullptr) {
      bytes_.assign(src.data, src.data + src.size);
    }
  }
  explicit OwnedPayload(SharedBytes shared)
      : shared_(std::move(shared)), size_(shared_->bytes.size()) {}

  std::uint64_t size() const { return size_; }
  bool is_virtual() const {
    return shared_ == nullptr && bytes_.empty() && size_ > 0;
  }
  ConstPayload view() const {
    if (shared_ != nullptr) return ConstPayload::of(shared_->bytes);
    return bytes_.empty() ? ConstPayload::virtual_bytes(size_)
                          : ConstPayload{bytes_.data(), size_};
  }
  /// Moves the stored bytes out (empty for virtual payloads); a shared
  /// buffer is copied.
  std::vector<std::byte> release() {
    size_ = 0;
    if (shared_ != nullptr) {
      std::vector<std::byte> out = shared_->bytes;
      shared_.reset();
      return out;
    }
    return std::move(bytes_);
  }
  /// Moves the body out as a shared buffer; owned bytes are adopted
  /// without a copy.
  SharedBytes share() {
    size_ = 0;
    if (shared_ != nullptr) return std::move(shared_);
    return std::make_shared<const SharedBuffer>(
        SharedBuffer{std::move(bytes_), nullptr});
  }

 private:
  std::vector<std::byte> bytes_;
  SharedBytes shared_;
  std::uint64_t size_ = 0;
};

}  // namespace mcio::util
