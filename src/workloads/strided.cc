#include "workloads/strided.h"

#include "util/check.h"

namespace mcio::workloads {

io::AccessPlan strided_plan(int rank, int nprocs,
                            const StridedConfig& config,
                            util::Payload buffer) {
  MCIO_CHECK_GE(config.stride, config.block);
  MCIO_CHECK_GT(config.block, 0u);
  std::vector<util::Extent> extents;
  extents.reserve(config.count);
  for (std::uint64_t k = 0; k < config.count; ++k) {
    const std::uint64_t slot =
        k * static_cast<std::uint64_t>(nprocs) +
        static_cast<std::uint64_t>(rank);
    extents.push_back(
        util::Extent{config.base + slot * config.stride, config.block});
  }
  return io::AccessPlan(util::ExtentList::normalize(std::move(extents)),
                        buffer);
}

std::uint64_t strided_bytes_per_rank(const StridedConfig& config) {
  return config.block * config.count;
}

}  // namespace mcio::workloads
