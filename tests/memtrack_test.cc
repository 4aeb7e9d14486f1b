// util::memtrack: the per-point allocation high-water behind the bench
// schema's peak_rss_bytes, and the regression pinning ISSUE 8's RSS
// misattribution as fixed (per-point peaks must be able to shrink; the
// process ru_maxrss never can).
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "util/memtrack.h"

namespace mcio::util {
namespace {

std::uint64_t maxrss_bytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
}

TEST(Memtrack, PeakTracksHighWaterAndResets) {
  memtrack::reset();
  {
    std::vector<char> big(8 << 20);
    big[0] = 1;
  }
  const std::uint64_t peak = memtrack::peak_bytes();
  EXPECT_GE(peak, 8u << 20);
  // The vector is freed: live drops, the peak stays.
  EXPECT_LT(memtrack::live_bytes(), static_cast<std::int64_t>(8 << 20));
  EXPECT_EQ(memtrack::peak_bytes(), peak);
  memtrack::reset();
  EXPECT_LT(memtrack::peak_bytes(), 8u << 20);
}

TEST(Memtrack, AllocatedBytesAccumulates) {
  memtrack::reset();
  for (int i = 0; i < 4; ++i) {
    std::vector<char> v(1 << 16);
    v[0] = 1;
  }
  const std::uint64_t count = memtrack::allocations();
  // Four sequential 64 KiB blocks: ~256 KiB total allocated, but only
  // one alive at a time, so the peak is far below the running total.
  EXPECT_EQ(count, 4u);
  EXPECT_GE(memtrack::allocated_bytes(), 4u << 16);
  EXPECT_LT(memtrack::peak_bytes(), 3u << 16);
}

TEST(Memtrack, CountersAreThreadLocal) {
  memtrack::reset();
  std::thread worker([] {
    memtrack::reset();
    std::vector<char> big(4 << 20);
    big[0] = 1;
    EXPECT_GE(memtrack::peak_bytes(), 4u << 20);
  });
  worker.join();
  // The worker's allocations never touch this thread's ledger.
  EXPECT_LT(memtrack::peak_bytes(), 4u << 20);
}

// Regression for the bench's historical per-point "peak_rss_bytes":
// it reported getrusage ru_maxrss, a process-lifetime high-water mark,
// so every point after the hungriest one inherited its peak. The
// per-point metric must be non-monotone when the workload shrinks.
TEST(Memtrack, PerPointPeakIsNonMonotoneWhereRssIsNot) {
  // Point 1: a large working set.
  memtrack::reset();
  {
    std::vector<char> big(16 << 20);
    big[0] = 1;
  }
  const std::uint64_t point1_peak = memtrack::peak_bytes();
  const std::uint64_t point1_rss = maxrss_bytes();

  // Point 2: a much smaller working set.
  memtrack::reset();
  {
    std::vector<char> small(64 << 10);
    small[0] = 1;
  }
  const std::uint64_t point2_peak = memtrack::peak_bytes();
  const std::uint64_t point2_rss = maxrss_bytes();

  // The fixed metric shrinks with the workload...
  EXPECT_GE(point1_peak, 16u << 20);
  EXPECT_LT(point2_peak, 8u << 20);
  EXPECT_LT(point2_peak, point1_peak);
  // ...while the old one cannot: ru_maxrss is monotone by construction,
  // which is exactly why attributing it per point was wrong.
  EXPECT_GE(point2_rss, point1_rss);
}

}  // namespace
}  // namespace mcio::util
