#include "workloads/collperf.h"

#include <algorithm>

#include "util/check.h"

namespace mcio::workloads {

std::array<int, 3> dims_create3(int nprocs) {
  MCIO_CHECK_GT(nprocs, 0);
  // Greedy: repeatedly assign the largest prime factor to the smallest
  // dimension — yields MPI_Dims_create-like balanced grids.
  std::array<int, 3> dims = {1, 1, 1};
  int n = nprocs;
  std::vector<int> factors;
  for (int f = 2; f * f <= n; ++f) {
    while (n % f == 0) {
      factors.push_back(f);
      n /= f;
    }
  }
  if (n > 1) factors.push_back(n);
  std::sort(factors.rbegin(), factors.rend());
  for (const int f : factors) {
    auto it = std::min_element(dims.begin(), dims.end());
    *it *= f;
  }
  std::sort(dims.rbegin(), dims.rend());
  return dims;
}

namespace {

struct Block {
  std::array<std::uint64_t, 3> start;
  std::array<std::uint64_t, 3> size;
};

Block block_of(int rank, int nprocs, const CollPerfConfig& config) {
  const auto grid = dims_create3(nprocs);
  for (int d = 0; d < 3; ++d) {
    MCIO_CHECK_MSG(static_cast<std::uint64_t>(grid[static_cast<
                       std::size_t>(d)]) <= config.dims[static_cast<
                       std::size_t>(d)],
                   "process grid exceeds array dimension " << d);
  }
  // Row-major rank → coords, matching MPI_Cart_create defaults.
  std::array<int, 3> coord{};
  int r = rank;
  coord[2] = r % grid[2];
  r /= grid[2];
  coord[1] = r % grid[1];
  coord[0] = r / grid[1];
  Block b{};
  for (std::size_t d = 0; d < 3; ++d) {
    const auto nd = config.dims[d];
    const auto pd = static_cast<std::uint64_t>(grid[d]);
    const auto cd = static_cast<std::uint64_t>(coord[d]);
    b.start[d] = cd * nd / pd;
    b.size[d] = (cd + 1) * nd / pd - b.start[d];
  }
  return b;
}

}  // namespace

mpi::Datatype collperf_filetype(int rank, int nprocs,
                                const CollPerfConfig& config) {
  const Block b = block_of(rank, nprocs, config);
  return mpi::Datatype::subarray(
      {config.dims[0], config.dims[1], config.dims[2]},
      {b.size[0], b.size[1], b.size[2]},
      {b.start[0], b.start[1], b.start[2]},
      mpi::Datatype::bytes(config.elem_size));
}

io::AccessPlan collperf_plan(int rank, int nprocs,
                             const CollPerfConfig& config,
                             util::Payload buffer) {
  const mpi::Datatype t = collperf_filetype(rank, nprocs, config);
  return io::AccessPlan(util::ExtentList::normalize(t.flatten(0, 1)),
                        buffer);
}

std::uint64_t collperf_bytes_per_rank(int rank, int nprocs,
                                      const CollPerfConfig& config) {
  const Block b = block_of(rank, nprocs, config);
  return b.size[0] * b.size[1] * b.size[2] * config.elem_size;
}

std::uint64_t collperf_total_bytes(const CollPerfConfig& config) {
  return config.dims[0] * config.dims[1] * config.dims[2] *
         config.elem_size;
}

}  // namespace mcio::workloads
