#include "mpi/datatype.h"

#include <algorithm>

#include "util/check.h"

namespace mcio::mpi {

using util::Extent;

Datatype::Datatype(std::vector<Extent> runs, std::uint64_t lb,
                   std::uint64_t extent)
    : runs_(std::move(runs)), lb_(lb), extent_(extent) {
  for (const Extent& e : runs_) size_ += e.len;
}

Datatype Datatype::bytes(std::uint64_t n) {
  std::vector<Extent> runs;
  if (n > 0) runs.push_back(Extent{0, n});
  return Datatype(std::move(runs), 0, n);
}

namespace {

/// Tiles `count` instances of `runs` at stride `extent`, merging adjacent
/// runs. Instances are laid out in increasing displacement; when extent is
/// at least the span of the runs the result stays sorted, otherwise we
/// normalize (overlap is rejected — MPI file views must not self-overlap).
std::vector<Extent> tile(const std::vector<Extent>& runs,
                         std::uint64_t extent, std::uint64_t base_disp,
                         std::uint64_t count) {
  std::vector<Extent> out;
  out.reserve(runs.size() * count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t disp = base_disp + i * extent;
    for (const Extent& e : runs) {
      const Extent shifted{disp + e.offset, e.len};
      if (!out.empty() && out.back().end() == shifted.offset) {
        out.back().len += shifted.len;
      } else {
        MCIO_CHECK_MSG(out.empty() || out.back().end() < shifted.offset,
                       "datatype tiling overlaps itself");
        out.push_back(shifted);
      }
    }
  }
  return out;
}

}  // namespace

Datatype Datatype::contiguous(std::uint64_t count, const Datatype& base) {
  auto runs = tile(base.runs_, base.extent_, base.lb_ * 0, count);
  return Datatype(std::move(runs), base.lb_, base.extent_ * count);
}

Datatype Datatype::vector(std::uint64_t count, std::uint64_t blocklen,
                          std::uint64_t stride, const Datatype& base) {
  MCIO_CHECK_GE(stride, blocklen);
  std::vector<Extent> runs;
  for (std::uint64_t i = 0; i < count; ++i) {
    auto block =
        tile(base.runs_, base.extent_, i * stride * base.extent_, blocklen);
    for (const Extent& e : block) {
      if (!runs.empty() && runs.back().end() == e.offset) {
        runs.back().len += e.len;
      } else {
        runs.push_back(e);
      }
    }
  }
  // MPI extent of a vector: from first byte to end of last block.
  const std::uint64_t extent =
      count == 0 ? 0
                 : ((count - 1) * stride + blocklen) * base.extent_;
  return Datatype(std::move(runs), base.lb_, extent);
}

Datatype Datatype::indexed(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& blocks,
    const Datatype& base) {
  std::vector<Extent> runs;
  std::uint64_t max_end = 0;
  for (const auto& [disp, blocklen] : blocks) {
    auto block = tile(base.runs_, base.extent_, disp * base.extent_,
                      blocklen);
    for (const Extent& e : block) runs.push_back(e);
    max_end = std::max(max_end, (disp + blocklen) * base.extent_);
  }
  // Normalize: indexed blocks may be listed out of order.
  return Datatype(util::ExtentList::normalize(std::move(runs)).runs(), 0,
                  max_end);
}

Datatype Datatype::subarray(const std::vector<std::uint64_t>& sizes,
                            const std::vector<std::uint64_t>& subsizes,
                            const std::vector<std::uint64_t>& starts,
                            const Datatype& base, Order order) {
  const std::size_t ndims = sizes.size();
  MCIO_CHECK_GT(ndims, 0u);
  MCIO_CHECK_EQ(subsizes.size(), ndims);
  MCIO_CHECK_EQ(starts.size(), ndims);
  for (std::size_t d = 0; d < ndims; ++d) {
    MCIO_CHECK_GT(subsizes[d], 0u);
    MCIO_CHECK_LE(starts[d] + subsizes[d], sizes[d]);
  }
  // Reorder so that dims[0] is the slowest-varying dimension.
  std::vector<std::size_t> dims(ndims);
  for (std::size_t d = 0; d < ndims; ++d) {
    dims[d] = order == Order::kC ? d : ndims - 1 - d;
  }
  // Row strides in elements: stride of dim d = product of sizes of all
  // faster dims.
  std::vector<std::uint64_t> stride(ndims, 1);
  for (std::size_t i = ndims; i-- > 1;) {
    stride[i - 1] = stride[i] * sizes[dims[i]];
  }
  // Enumerate rows of the fastest dimension (one contiguous run each when
  // the base type is contiguous).
  std::uint64_t total_elems = 1;
  for (std::size_t d = 0; d + 1 < ndims; ++d) {
    total_elems *= subsizes[dims[d]];
  }
  std::vector<Extent> runs;
  const bool base_contig = base.contiguous_data() &&
                           base.size() == base.extent();
  std::vector<std::uint64_t> idx(ndims, 0);
  for (std::uint64_t row = 0; row < total_elems; ++row) {
    std::uint64_t elem_off = 0;
    for (std::size_t d = 0; d + 1 < ndims; ++d) {
      elem_off += (starts[dims[d]] + idx[d]) * stride[d];
    }
    elem_off += starts[dims[ndims - 1]] * stride[ndims - 1];
    const std::uint64_t row_elems = subsizes[dims[ndims - 1]];
    if (base_contig) {
      const Extent e{elem_off * base.extent_, row_elems * base.extent_};
      if (!runs.empty() && runs.back().end() == e.offset) {
        runs.back().len += e.len;
      } else {
        runs.push_back(e);
      }
    } else {
      auto block =
          tile(base.runs_, base.extent_, elem_off * base.extent_, row_elems);
      for (const Extent& e : block) runs.push_back(e);
    }
    // Odometer over the slow dims (last slow dim varies fastest).
    for (std::size_t d = ndims - 1; d-- > 0;) {
      if (++idx[d] < subsizes[dims[d]]) break;
      idx[d] = 0;
    }
  }
  std::uint64_t full_elems = 1;
  for (const std::uint64_t s : sizes) full_elems *= s;
  return Datatype(util::ExtentList::normalize(std::move(runs)).runs(), 0,
                  full_elems * base.extent_);
}

Datatype Datatype::resized(const Datatype& base, std::uint64_t lb,
                           std::uint64_t extent) {
  return Datatype(std::vector<Extent>(base.runs_), lb, extent);
}

bool Datatype::contiguous_data() const {
  return runs_.size() <= 1;
}

std::vector<Extent> Datatype::flatten(std::uint64_t disp,
                                      std::uint64_t count) const {
  return tile(runs_, extent_, disp + lb_, count);
}

std::vector<Extent> Datatype::flatten_bytes(
    std::uint64_t disp, std::uint64_t data_bytes) const {
  MCIO_CHECK_GT(size_, 0u);
  const std::uint64_t full = data_bytes / size_;
  const std::uint64_t rem = data_bytes % size_;
  std::vector<Extent> out = tile(runs_, extent_, disp + lb_, full);
  if (rem > 0) {
    std::uint64_t left = rem;
    const std::uint64_t base_disp = disp + lb_ + full * extent_;
    for (const Extent& e : runs_) {
      const std::uint64_t take = std::min<std::uint64_t>(left, e.len);
      const Extent piece{base_disp + e.offset, take};
      if (!out.empty() && out.back().end() == piece.offset) {
        out.back().len += piece.len;
      } else {
        out.push_back(piece);
      }
      left -= take;
      if (left == 0) break;
    }
  }
  return out;
}

}  // namespace mcio::mpi
