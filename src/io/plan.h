// Access plans: the flattened form of one process's I/O request.
//
// A plan is made in one place, its constructor, and is valid by type from
// then on. Its extents are a util::ExtentList, so they are sorted,
// disjoint, non-empty and coalesced; the constructor CHECKs that the
// buffer holds exactly their total. Drivers, the exchange and independent
// I/O take a plan as given: none of them re-checks or re-normalizes it.
// Unsorted or overlapping runs go through normalize first:
//
//   io::AccessPlan plan(util::ExtentList::normalize(std::move(runs)), buf);
//
// Overlapping runs merge there, so a buffer sized for the raw runs then
// fails the size CHECK. The fields are const: a plan is read, never
// edited, after it is made. Factories return plans as prvalues, so
// returning one copies no runs.
#pragma once

#include <cstdint>
#include <utility>

#include "util/check.h"
#include "util/extent.h"
#include "util/payload.h"

namespace mcio::io {

/// One process's request: file extents plus the (conceptually packed) user
/// buffer laid out in their order. The buffer may be virtual for
/// timing-only runs.
struct AccessPlan {
  /// The empty plan: no extents, an empty buffer.
  AccessPlan() = default;

  /// Throws util::Error unless `buf.size` equals `runs.total_bytes()`.
  AccessPlan(util::ExtentList runs, util::Payload buf)
      : extents(std::move(runs)), buffer(buf) {
    MCIO_CHECK_MSG(buffer.size == extents.total_bytes(),
                   "plan buffer size " << buffer.size
                                       << " != extent total "
                                       << extents.total_bytes());
  }

  const util::ExtentList extents;
  const util::Payload buffer{};

  /// The constructor's CHECK makes this the extents' total too, in O(1).
  std::uint64_t total_bytes() const { return buffer.size; }
  /// Smallest extent covering the request; empty when the plan is empty.
  util::Extent bounds() const { return extents.bounds(); }
  bool empty() const { return extents.empty(); }
};

}  // namespace mcio::io
