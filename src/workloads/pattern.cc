#include "workloads/pattern.h"

#include <sstream>

#include "util/check.h"

namespace mcio::workloads {

std::byte pattern_byte(std::uint64_t seed, std::uint64_t file_offset) {
  // One splitmix64 round over the word index, then select the byte — fast
  // and avalanche-mixed so adjacent offsets differ.
  std::uint64_t z = (seed * 0x9e3779b97f4a7c15ULL) ^ (file_offset >> 3);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return static_cast<std::byte>((z >> ((file_offset & 7) * 8)) & 0xff);
}

void fill_pattern(const io::AccessPlan& plan, std::uint64_t seed) {
  MCIO_CHECK_MSG(plan.buffer.data != nullptr || plan.buffer.size == 0,
                 "fill_pattern needs a real buffer");
  std::uint64_t buf = 0;
  for (const util::Extent& e : plan.extents.runs()) {
    for (std::uint64_t i = 0; i < e.len; ++i) {
      plan.buffer.data[buf + i] = pattern_byte(seed, e.offset + i);
    }
    buf += e.len;
  }
}

bool verify_pattern(const io::AccessPlan& plan, std::uint64_t seed,
                    std::string* error) {
  MCIO_CHECK_MSG(plan.buffer.data != nullptr || plan.buffer.size == 0,
                 "verify_pattern needs a real buffer");
  std::uint64_t buf = 0;
  for (const util::Extent& e : plan.extents.runs()) {
    for (std::uint64_t i = 0; i < e.len; ++i) {
      const std::byte expected = pattern_byte(seed, e.offset + i);
      if (plan.buffer.data[buf + i] != expected) {
        if (error != nullptr) {
          std::ostringstream os;
          os << "mismatch at file offset " << e.offset + i << " (buffer "
             << buf + i << "): got "
             << static_cast<int>(plan.buffer.data[buf + i]) << ", want "
             << static_cast<int>(expected);
          *error = os.str();
        }
        return false;
      }
    }
    buf += e.len;
  }
  return true;
}

bool verify_store(const pfs::Store& store,
                  const std::vector<util::Extent>& extents,
                  std::uint64_t seed, std::string* error) {
  for (const util::Extent& e : extents) {
    std::vector<std::byte> buf(e.len);
    store.read(e.offset, util::Payload::of(buf));
    for (std::uint64_t i = 0; i < e.len; ++i) {
      const std::byte expected = pattern_byte(seed, e.offset + i);
      if (buf[i] != expected) {
        if (error != nullptr) {
          std::ostringstream os;
          os << "store mismatch at offset " << e.offset + i << ": got "
             << static_cast<int>(buf[i]) << ", want "
             << static_cast<int>(expected);
          *error = os.str();
        }
        return false;
      }
    }
  }
  return true;
}

}  // namespace mcio::workloads
