#include "io/plan.h"

#include "util/check.h"

namespace mcio::io {

std::uint64_t AccessPlan::total_bytes() const {
  std::uint64_t total = 0;
  for (const util::Extent& e : extents) total += e.len;
  return total;
}

util::Extent AccessPlan::bounds() const {
  if (extents.empty()) return util::Extent{};
  return util::Extent{extents.front().offset,
                      extents.back().end() - extents.front().offset};
}

void AccessPlan::validate() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < extents.size(); ++i) {
    MCIO_CHECK_MSG(!extents[i].empty(), "empty extent in plan");
    if (i > 0) {
      MCIO_CHECK_MSG(extents[i - 1].end() <= extents[i].offset,
                     "plan extents unsorted or overlapping at index " << i);
    }
    total += extents[i].len;
  }
  MCIO_CHECK_MSG(buffer.size == total,
                 "plan buffer size " << buffer.size
                                     << " != extent total " << total);
}

AccessPlan make_plan(std::vector<util::Extent> extents,
                     util::Payload buffer) {
  AccessPlan plan;
  plan.extents = util::ExtentList::normalize(std::move(extents)).runs();
  plan.buffer = buffer;
  plan.validate();
  return plan;
}

}  // namespace mcio::io
