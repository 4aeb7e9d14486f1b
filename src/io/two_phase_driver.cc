#include "io/two_phase_driver.h"

#include <algorithm>

#include "io/independent.h"
#include "util/check.h"

namespace mcio::io {

using util::Extent;

namespace {

std::uint64_t round_up(std::uint64_t v, std::uint64_t unit) {
  return unit == 0 ? v : (v + unit - 1) / unit * unit;
}

/// Plan-time independent fallback (see the rung table in io/exchange.h)
/// for the non-memory-aware baseline: with every node exhausted there is
/// nowhere to aggregate — and no far-memory donor either — so the whole
/// collective degrades to independent I/O (every rank agrees — the fault
/// plan is shared). It skips the exchange and the plan allgather before
/// it; sending these ranks through the exchange, as MCCIO's fallback
/// ranks go, would add that allgather to the modeled time. Partial
/// exhaustion keeps the fixed aggregator map and lets the exchange's
/// lease ladder (including the borrow rung, when hinted) absorb the
/// faults.
bool all_nodes_exhausted(const CollContext& ctx) {
  const node::FaultPlan* fp = ctx.memory->fault_plan();
  return fp != nullptr && fp->num_exhausted() == fp->num_nodes();
}

/// Each rank's contribution to the plan's metadata allgather.
struct BoundsMsg {
  std::uint64_t offset = 0;
  std::uint64_t len = 0;
  std::uint8_t is_virtual = 0;
};

/// Builds the plan from the allgathered bounds (once per collective, on
/// the first rank to arrive).
ExchangePlan plan_from(const CollContext& ctx,
                       const std::vector<BoundsMsg>& all) {
  ExchangePlan xplan;
  xplan.rank_bounds.reserve(all.size());
  bool any_virtual = false;
  std::uint64_t gmin = UINT64_MAX;
  std::uint64_t gmax = 0;
  for (const BoundsMsg& b : all) {
    xplan.rank_bounds.push_back(Extent{b.offset, b.len});
    if (b.len > 0) {
      any_virtual = any_virtual || b.is_virtual != 0;
      gmin = std::min(gmin, b.offset);
      gmax = std::max(gmax, b.offset + b.len);
    }
  }
  xplan.real_data = !any_virtual;
  xplan.num_groups = 1;
  if (gmax <= gmin) return xplan;  // nothing to do anywhere

  const auto aggs =
      TwoPhaseDriver::default_aggregators(*ctx.comm, ctx.hints.cb_nodes);
  const auto naggs = static_cast<std::uint64_t>(aggs.size());
  std::uint64_t fd_size = (gmax - gmin + naggs - 1) / naggs;
  if (ctx.hints.align_file_domains) {
    fd_size = round_up(fd_size, ctx.fs->config().stripe_unit);
  }
  fd_size = std::max<std::uint64_t>(fd_size, 1);
  for (std::uint64_t i = 0; i < naggs; ++i) {
    const std::uint64_t start = gmin + i * fd_size;
    if (start >= gmax) break;
    const std::uint64_t len = std::min(fd_size, gmax - start);
    FileDomain d;
    d.extent = Extent{start, len};
    d.aggregator = aggs[static_cast<std::size_t>(i)];
    d.buffer_bytes = ctx.hints.cb_buffer_size;
    xplan.domains.push_back(d);
  }
  return xplan;
}

}  // namespace

std::vector<int> TwoPhaseDriver::default_aggregators(const mpi::Comm& comm,
                                                     int cb_nodes) {
  const std::vector<int>& leaders = comm.node_leaders();
  const std::size_t n =
      cb_nodes > 0 ? std::min(leaders.size(),
                              static_cast<std::size_t>(cb_nodes))
                   : leaders.size();
  return std::vector<int>(leaders.begin(),
                          leaders.begin() + static_cast<std::ptrdiff_t>(n));
}

std::shared_ptr<const ExchangePlan> TwoPhaseDriver::build_plan(
    CollContext& ctx, const AccessPlan& plan) {
  const Extent bounds = plan.bounds();
  BoundsMsg mine{bounds.offset, bounds.len,
                 static_cast<std::uint8_t>(
                     plan.buffer.is_virtual() ? 1 : 0)};
  // With node leaders on, the metadata allgather itself goes hierarchical:
  // O(nodes) NIC messages instead of O(ranks).
  const auto all = ctx.comm->allgather(mine, ctx.hints.cb_node_leaders);
  PlanKey key(ctx, "two-phase");
  key.add(static_cast<std::uint64_t>(ctx.hints.cb_nodes))
      .add(ctx.hints.align_file_domains ? 1 : 0)
      .add(ctx.hints.cb_buffer_size);
  return share_exchange_plan(ctx, key.value(), [&] {
    return plan_from(ctx, *all);
  });
}

void TwoPhaseDriver::write_all(CollContext& ctx, const AccessPlan& plan) {
  if (all_nodes_exhausted(ctx)) {
    if (ctx.stats != nullptr) ctx.stats->record_fallback(plan.total_bytes());
    independent_write(ctx, plan);
    return;
  }
  TwoPhaseExchange exchange(ctx, plan, build_plan(ctx, plan));
  exchange.write();
}

void TwoPhaseDriver::read_all(CollContext& ctx, const AccessPlan& plan) {
  if (all_nodes_exhausted(ctx)) {
    if (ctx.stats != nullptr) ctx.stats->record_fallback(plan.total_bytes());
    independent_read(ctx, plan);
    return;
  }
  TwoPhaseExchange exchange(ctx, plan, build_plan(ctx, plan));
  exchange.read();
}

}  // namespace mcio::io
