#include "pfs/store.h"

#include <algorithm>
#include <cstring>
#include <vector>

namespace mcio::pfs {

void Store::write(std::uint64_t offset, util::ConstPayload data) {
  size_ = std::max(size_, offset + data.size);
  if (data.data == nullptr || data.size == 0) return;
  std::uint64_t pos = 0;
  while (pos < data.size) {
    const std::uint64_t abs = offset + pos;
    const std::uint64_t page_idx = abs / kPageSize;
    const std::uint64_t in_page = abs % kPageSize;
    const std::uint64_t n =
        std::min<std::uint64_t>(kPageSize - in_page, data.size - pos);
    auto [it, inserted] = pages_.try_emplace(page_idx);
    if (inserted) it->second.fill(std::byte{0});
    std::memcpy(it->second.data() + in_page, data.data + pos, n);
    pos += n;
  }
}

void Store::read(std::uint64_t offset, util::Payload out) const {
  if (out.data == nullptr || out.size == 0) return;
  std::uint64_t pos = 0;
  while (pos < out.size) {
    const std::uint64_t abs = offset + pos;
    const std::uint64_t page_idx = abs / kPageSize;
    const std::uint64_t in_page = abs % kPageSize;
    const std::uint64_t n =
        std::min<std::uint64_t>(kPageSize - in_page, out.size - pos);
    const auto it = pages_.find(page_idx);
    if (it == pages_.end()) {
      std::memset(out.data + pos, 0, n);
    } else {
      std::memcpy(out.data + pos, it->second.data() + in_page, n);
    }
    pos += n;
  }
}

void Store::truncate() {
  pages_.clear();
  size_ = 0;
}

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t fnv1a(std::uint64_t h, const std::byte* p, std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) {
    h = (h ^ static_cast<std::uint64_t>(p[i])) * kFnvPrime;
  }
  return h;
}

std::uint64_t fnv1a_zeros(std::uint64_t h, std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) h = h * kFnvPrime;
  return h;
}

}  // namespace

std::uint64_t Store::content_hash() const {
  // Resident pages in ascending order; gaps hash as zero bytes so the
  // result depends only on the logical byte string.
  std::vector<std::uint64_t> idx;
  idx.reserve(pages_.size());
  for (const auto& [page, bytes] : pages_) {
    (void)bytes;
    idx.push_back(page);
  }
  std::sort(idx.begin(), idx.end());
  std::uint64_t h = kFnvOffset;
  std::uint64_t pos = 0;
  for (const std::uint64_t page : idx) {
    const std::uint64_t start = page * kPageSize;
    if (start >= size_) break;
    h = fnv1a_zeros(h, start - pos);
    const std::uint64_t n = std::min(kPageSize, size_ - start);
    h = fnv1a(h, pages_.at(page).data(), n);
    pos = start + n;
  }
  h = fnv1a_zeros(h, size_ - pos);
  return h;
}

}  // namespace mcio::pfs
