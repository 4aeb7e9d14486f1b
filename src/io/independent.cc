#include "io/independent.h"

#include <cstring>
#include <vector>

#include "util/check.h"

namespace mcio::io {

using util::Extent;
using util::Payload;

void independent_write(CollContext& ctx, const AccessPlan& plan) {
  std::uint64_t buf_off = 0;
  for (const Extent& e : plan.extents.runs()) {
    const auto data = util::ConstPayload(plan.buffer).slice(buf_off, e.len);
    ctx.fs->write(ctx.rank->actor(), ctx.file, e.offset, data);
    if (ctx.stats != nullptr) ctx.stats->record_io(e.len);
    buf_off += e.len;
  }
}

void independent_read(CollContext& ctx, const AccessPlan& plan) {
  const std::vector<Extent>& runs = plan.extents.runs();
  const bool real = plan.buffer.data != nullptr;
  std::size_t i = 0;
  std::uint64_t buf_off = 0;
  while (i < runs.size()) {
    // Greedy sieving span: extend while the gap stays small enough.
    std::size_t j = i;
    std::uint64_t span_data = runs[i].len;
    while (j + 1 < runs.size() &&
           runs[j + 1].offset - runs[j].end() <= ctx.hints.ds_max_gap) {
      ++j;
      span_data += runs[j].len;
    }
    const Extent span{runs[i].offset, runs[j].end() - runs[i].offset};
    if (j == i) {
      // Single extent: read straight into place.
      ctx.fs->read(ctx.rank->actor(), ctx.file, span.offset,
                   plan.buffer.slice(buf_off, span.len));
    } else {
      std::vector<std::byte> tmp(real ? span.len : 0);
      Payload stage = real ? Payload::of(tmp)
                           : Payload::virtual_bytes(span.len);
      ctx.fs->read(ctx.rank->actor(), ctx.file, span.offset, stage);
      if (ctx.stats != nullptr) {
        ctx.stats->record_rmw(span.len - span_data);  // sieved waste
      }
      std::uint64_t off = buf_off;
      for (std::size_t k = i; k <= j; ++k) {
        const Extent& e = runs[k];
        if (real) {
          std::memcpy(plan.buffer.data + off,
                      tmp.data() + (e.offset - span.offset), e.len);
        }
        off += e.len;
      }
    }
    if (ctx.stats != nullptr) ctx.stats->record_io(span.len);
    buf_off += span_data;
    i = j + 1;
  }
}

}  // namespace mcio::io
