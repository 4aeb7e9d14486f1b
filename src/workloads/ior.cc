#include "workloads/ior.h"

#include "util/check.h"

namespace mcio::workloads {

io::AccessPlan ior_plan(int rank, int nprocs, const IorConfig& config,
                        util::Payload buffer) {
  MCIO_CHECK_GT(nprocs, 0);
  MCIO_CHECK_GE(rank, 0);
  MCIO_CHECK_LT(rank, nprocs);
  MCIO_CHECK_GT(config.block_size, 0u);
  MCIO_CHECK_GT(config.transfer_size, 0u);
  MCIO_CHECK_EQ(config.block_size % config.transfer_size, 0u);
  MCIO_CHECK_GT(config.segments, 0);

  const std::uint64_t p = static_cast<std::uint64_t>(nprocs);
  const std::uint64_t r = static_cast<std::uint64_t>(rank);
  const std::uint64_t seg_bytes = p * config.block_size;
  std::vector<util::Extent> extents;
  for (std::uint64_t s = 0; s < static_cast<std::uint64_t>(
                                    config.segments);
       ++s) {
    const std::uint64_t seg_base = s * seg_bytes;
    if (!config.interleaved) {
      extents.push_back(
          util::Extent{seg_base + r * config.block_size,
                       config.block_size});
    } else {
      const std::uint64_t transfers =
          config.block_size / config.transfer_size;
      for (std::uint64_t k = 0; k < transfers; ++k) {
        extents.push_back(util::Extent{
            seg_base + (k * p + r) * config.transfer_size,
            config.transfer_size});
      }
    }
  }
  return io::AccessPlan(util::ExtentList::normalize(std::move(extents)),
                        buffer);
}

std::uint64_t ior_bytes_per_rank(const IorConfig& config) {
  return config.block_size * static_cast<std::uint64_t>(config.segments);
}

std::uint64_t ior_total_bytes(int nprocs, const IorConfig& config) {
  return ior_bytes_per_rank(config) * static_cast<std::uint64_t>(nprocs);
}

}  // namespace mcio::workloads
