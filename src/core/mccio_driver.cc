#include "core/mccio_driver.h"

#include <algorithm>
#include <map>

#include "core/aggregator_location.h"
#include "core/group_division.h"
#include "core/partition_tree.h"
#include "util/check.h"

namespace mcio::core {

using util::Extent;

namespace {

/// Metadata every rank contributes before the decisions are made.
struct Meta {
  std::uint64_t offset = 0;
  std::uint64_t len = 0;           ///< bounds length
  std::uint64_t data_bytes = 0;    ///< actual request bytes
  std::uint8_t is_virtual = 0;
  std::int32_t node = 0;
  std::uint64_t node_available = 0;  ///< Mem_avl of the reporting node
};

/// The decision pipeline over the allgathered metadata: groups,
/// partition trees, remerges and aggregator placements. Runs once per
/// collective, on the first rank to arrive.
io::ExchangePlan plan_from(const MccioConfig& config,
                           const io::CollContext& ctx,
                           const std::vector<Meta>& all) {
  io::ExchangePlan xplan;
  xplan.rank_bounds.reserve(all.size());
  std::vector<int> rank_nodes;
  rank_nodes.reserve(all.size());
  bool any_virtual = false;
  int max_node = 0;
  std::uint64_t total_bytes = 0;
  for (const Meta& m : all) {
    xplan.rank_bounds.push_back(Extent{m.offset, m.len});
    rank_nodes.push_back(m.node);
    max_node = std::max(max_node, static_cast<int>(m.node));
    if (m.len > 0) {
      any_virtual = any_virtual || m.is_virtual != 0;
      total_bytes += m.data_bytes;
    }
  }
  xplan.real_data = !any_virtual;
  if (total_bytes == 0) {
    xplan.num_groups = 0;
    return xplan;
  }

  std::vector<std::uint64_t> node_available(
      static_cast<std::size_t>(max_node) + 1, 0);
  std::vector<int> nodes_with_data;
  for (const Meta& m : all) {
    auto& slot = node_available[static_cast<std::size_t>(m.node)];
    slot = std::max(slot, m.node_available);
    if (m.len > 0) nodes_with_data.push_back(m.node);
  }
  std::sort(nodes_with_data.begin(), nodes_with_data.end());
  nodes_with_data.erase(
      std::unique(nodes_with_data.begin(), nodes_with_data.end()),
      nodes_with_data.end());

  const std::uint64_t stripe = ctx.fs->config().stripe_unit;

  // Resolve the auto parameters.
  const std::uint64_t msg_ind = std::max<std::uint64_t>(config.msg_ind, 1);
  std::uint64_t msg_group = config.msg_group;
  if (msg_group == 0) {
    // Auto: aim for roughly one group per three data-bearing nodes, but
    // never a group smaller than one aggregator's saturation size.
    const auto target_groups = std::clamp<std::uint64_t>(
        nodes_with_data.size() / 3, 1, 16);
    msg_group = std::max<std::uint64_t>(msg_ind,
                                        total_bytes / target_groups);
  }
  std::uint64_t best_avail = 0;
  double avail_sum = 0.0;
  for (const int n : nodes_with_data) {
    const std::uint64_t a = node_available[static_cast<std::size_t>(n)];
    best_avail = std::max(best_avail, a);
    avail_sum += static_cast<double>(a);
  }
  std::uint64_t mem_min = config.mem_min;
  if (mem_min == 0) {
    // Auto: half the mean availability, floored at 1 MiB — hosts clearly
    // below their peers should not aggregate.
    const double mean_avail =
        nodes_with_data.empty()
            ? 0.0
            : avail_sum / static_cast<double>(nodes_with_data.size());
    mem_min = std::max<std::uint64_t>(
        1ull << 20, static_cast<std::uint64_t>(mean_avail / 2.0));
  }
  // Lower the bar to the best node actually present, so scarce-memory
  // systems still aggregate (the placement then simply prefers the
  // best-endowed hosts — the paper's behaviour under pressure).
  mem_min = std::min(mem_min, best_avail);

  // Per-node aggregation-memory weights (0 = unqualified): used both to
  // balance interleaved group regions and, per group, to size the slots.
  const std::uint64_t per_slot = std::max<std::uint64_t>(
      msg_ind, std::max<std::uint64_t>(mem_min, stripe));
  const auto slot_plan = [&](std::uint64_t avail)
      -> std::pair<int, std::uint64_t> {  // (slots, budget per slot)
    if (avail < mem_min) return {0, 0};
    const auto sn = static_cast<int>(std::clamp<std::uint64_t>(
        avail / per_slot, 1, static_cast<std::uint64_t>(config.n_ah)));
    // Stripe-align the slot budget to the *nearest* stripe: trading at
    // most half a stripe of overcommit against a whole extra round per
    // window is the memory-conscious choice.
    std::uint64_t budget = avail / static_cast<std::uint64_t>(sn);
    if (stripe > 1) budget = (budget + stripe / 2) / stripe * stripe;
    budget = std::max(budget, stripe);
    return {sn, budget};
  };
  std::vector<double> node_weights(node_available.size(), 0.0);
  for (const int n : nodes_with_data) {
    const auto [sn, budget] =
        slot_plan(node_available[static_cast<std::size_t>(n)]);
    node_weights[static_cast<std::size_t>(n)] =
        static_cast<double>(sn) * static_cast<double>(budget);
  }

  // 1. Aggregation Group Division.
  std::vector<AggregationGroup> groups;
  if (config.group_division) {
    GroupDivisionInput gin;
    gin.rank_bounds = xplan.rank_bounds;
    gin.rank_nodes = rank_nodes;
    gin.msg_group = msg_group;
    gin.align = stripe;
    if (config.memory_aware) gin.node_weights = node_weights;
    groups = divide_groups(gin);
  } else {
    AggregationGroup g;
    std::uint64_t gmin = UINT64_MAX;
    std::uint64_t gmax = 0;
    for (std::size_t r = 0; r < xplan.rank_bounds.size(); ++r) {
      const Extent& b = xplan.rank_bounds[r];
      if (b.empty()) continue;
      gmin = std::min(gmin, b.offset);
      gmax = std::max(gmax, b.end());
      g.ranks.push_back(static_cast<int>(r));
    }
    g.region = Extent{gmin, gmax - gmin};
    groups.push_back(std::move(g));
  }
  xplan.num_groups = static_cast<int>(groups.size());

  // The node-leader hierarchy banks on group division never splitting a
  // physical node: a leader combines its whole node's payload per domain,
  // which only stays single-copy if every co-located data rank shuffles
  // within one group's domains. divide_groups cuts on node boundaries by
  // construction; keep that invariant loud.
  if (ctx.hints.cb_node_leaders) {
    std::map<int, std::size_t> node_group;
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
      for (const int r : groups[gi].ranks) {
        const int node = rank_nodes[static_cast<std::size_t>(r)];
        const auto [it, inserted] = node_group.emplace(node, gi);
        MCIO_CHECK_EQ(it->second, gi);
      }
    }
  }

  // 2-4. Per group: memory-aware workload partition + aggregator
  // location. Hosts at or above Mem_min each contribute up to N_ah
  // aggregator slots (an extra slot only when every slot still gets a
  // Msg_ind-sized buffer); the group region is bisected into leaves
  // *proportional to each slot's memory budget*, so every aggregator
  // finishes its file domain in the same number of buffer-sized rounds —
  // the balanced memory-consumption design of §3.1. When no host
  // qualifies, the classic leaf search with remerging (§3.2/§3.3) places
  // domains on whatever memory exists.
  std::vector<int> node_aggregators(node_available.size(), 0);
  const node::FaultPlan* faults = ctx.memory->fault_plan();
  std::uint64_t remerges = 0;

  // Plan-time last resort of the degradation ladder, decided up front so
  // no later placement can pick a doomed aggregator: a group whose hosts
  // are all exhausted cannot back even a Msg_ind buffer anywhere. Its
  // ranks drop out of the shuffle entirely (the exchange runs their I/O
  // independently) and their bounds are cleared *before* any group
  // is placed, so leaf searches below never select them. With the
  // borrow-far-memory rung enabled the group is *rescued* instead when
  // any node in the cluster can donate at least a floor-sized window —
  // the smallest ask the exchange-time borrow rung will make after the
  // shrink ladder bottoms out (Msg_ind would be the wrong bar here: its
  // saturation-sized default dwarfs scarce-memory testbeds and would
  // veto every rescue). Placement then proceeds (the classic leaf search
  // puts floor-sized domains on the exhausted hosts) and the
  // aggregators' ladders bottom out into a borrow at exchange time.
  // Full-cluster exhaustion leaves no donor, so the fallback below
  // still fires.
  std::vector<bool> group_dead(groups.size(), false);
  if (faults != nullptr && config.memory_aware) {
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
      const AggregationGroup& group = groups[gi];
      if (group.region.empty() || group.ranks.empty()) continue;
      bool all_exhausted = true;
      for (const int r : group.ranks) {
        if (!faults->exhausted(rank_nodes[static_cast<std::size_t>(r)])) {
          all_exhausted = false;
          break;
        }
      }
      if (!all_exhausted) continue;
      if (ctx.hints.borrow_far_memory) {
        // The one read of live state in the build: its answer is
        // recorded so audit mode can re-ask it on every rank.
        io::DonorElection e;
        e.borrower =
            rank_nodes[static_cast<std::size_t>(group.ranks.front())];
        e.bytes = std::min<std::uint64_t>(
            msg_ind, std::max<std::uint64_t>(
                         stripe, ctx.hints.fault_shrink_floor));
        e.reserve = ctx.hints.borrow_donor_reserve;
        e.donor = ctx.memory->elect_donor(e.borrower, e.bytes, e.reserve);
        if (e.donor >= 0) {
          xplan.donor_elections.push_back(e);
          continue;
        }
      }
      group_dead[gi] = true;
      for (const int r : group.ranks) {
        xplan.rank_bounds[static_cast<std::size_t>(r)] = Extent{};
        xplan.independent_ranks.push_back(r);
      }
    }
    std::sort(xplan.independent_ranks.begin(),
              xplan.independent_ranks.end());
  }

  // The classic leaf search with remerging (§3.2/§3.3): bisects `region`
  // into Msg_ind-sized leaves, at most `cap` of them, and places each on
  // the best host among `candidates`' (empty = every rank).
  const auto leaf_search = [&](const Extent& region, std::uint64_t cap,
                               std::vector<int> candidates) {
    const LocationInput lin{.rank_bounds = xplan.rank_bounds,
                            .rank_nodes = rank_nodes,
                            .candidate_ranks = std::move(candidates),
                            .node_available = &node_available,
                            .node_aggregators = &node_aggregators,
                            .mem_min = mem_min,
                            .msg_ind = msg_ind,
                            .buffer_align = stripe,
                            .n_ah = config.n_ah,
                            .remerging = config.remerging,
                            .remerges = &remerges,
                            .memory_aware = config.memory_aware};
    PartitionTree tree(region);
    tree.bisect_into(
        std::clamp<std::uint64_t>((region.len + msg_ind - 1) / msg_ind, 1,
                                  cap),
        stripe);
    for (const io::FileDomain& d : locate_aggregators(tree, lin)) {
      xplan.domains.push_back(d);
    }
  };

  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    const AggregationGroup& group = groups[gi];
    if (group.region.empty()) continue;
    std::vector<int> group_nodes;
    for (const int r : group.ranks) {
      group_nodes.push_back(rank_nodes[static_cast<std::size_t>(r)]);
    }
    std::sort(group_nodes.begin(), group_nodes.end());
    group_nodes.erase(
        std::unique(group_nodes.begin(), group_nodes.end()),
        group_nodes.end());

    if (group_dead[gi]) {
      // Healthy ranks from other groups whose requests still intersect
      // the region — interleaved layouts — pick up its domains via the
      // leaf search over all ranks. Serial layouts leave only holes.
      leaf_search(group.region, 16, {});
      continue;
    }

    struct Slot {
      int node;
      std::uint64_t budget;
    };
    std::vector<Slot> slots;
    if (config.memory_aware) {
      for (const int n : group_nodes) {
        const auto [sn, budget] =
            slot_plan(node_available[static_cast<std::size_t>(n)]);
        for (int k = 0; k < sn; ++k) slots.push_back(Slot{n, budget});
      }
    }

    if (slots.empty()) {
      // Fallback: the leaf-by-leaf host search with remerging.
      leaf_search(group.region,
                  std::max<std::uint64_t>(
                      1, group_nodes.size() *
                             static_cast<std::uint64_t>(config.n_ah)),
                  group.ranks);
      continue;
    }

    std::vector<double> weights;
    weights.reserve(slots.size());
    for (const Slot& s : slots) {
      weights.push_back(static_cast<double>(s.budget));
    }
    PartitionTree tree(group.region);
    tree.bisect_weighted(weights, stripe);
    const auto leaves = tree.leaf_ids();

    // Candidate aggregator processes per node, in rank order.
    std::map<int, std::vector<int>> node_ranks;
    for (const int r : group.ranks) {
      node_ranks[rank_nodes[static_cast<std::size_t>(r)]].push_back(r);
    }
    for (std::size_t j = 0; j < leaves.size(); ++j) {
      const Slot& slot = slots[std::min(j, slots.size() - 1)];
      const Extent ext = tree.extent_of(leaves[j]);
      std::uint64_t buffer = std::min<std::uint64_t>(ext.len, slot.budget);
      if (stripe > 1 && buffer > stripe) {
        buffer = buffer / stripe * stripe;  // stripe-aligned windows
      }
      buffer = std::max<std::uint64_t>(
          buffer, std::min<std::uint64_t>(stripe, ext.len));
      auto& count =
          node_aggregators[static_cast<std::size_t>(slot.node)];
      const auto& ranks_here = node_ranks[slot.node];
      io::FileDomain d;
      d.extent = ext;
      d.aggregator =
          ranks_here[static_cast<std::size_t>(count) % ranks_here.size()];
      d.buffer_bytes = buffer;
      ++count;
      auto& avail = node_available[static_cast<std::size_t>(slot.node)];
      avail = avail >= buffer ? avail - buffer : 0;
      xplan.domains.push_back(d);
    }
  }

  // Plan-time degradation counters: the build runs once per collective.
  if (ctx.stats != nullptr && (remerges > 0 || faults != nullptr)) {
    std::uint64_t exhausted = 0;
    if (faults != nullptr) {
      for (const int n : nodes_with_data) {
        if (faults->exhausted(n)) ++exhausted;
      }
    }
    if (remerges > 0 || exhausted > 0) {
      ctx.stats->record_plan_degradation(remerges, exhausted);
    }
  }
  return xplan;
}

}  // namespace

std::shared_ptr<const io::ExchangePlan> MccioDriver::build_plan(
    io::CollContext& ctx, const io::AccessPlan& plan) const {
  const Extent bounds = plan.bounds();
  Meta mine;
  mine.offset = bounds.offset;
  mine.len = bounds.len;
  mine.data_bytes = plan.total_bytes();
  mine.is_virtual = plan.buffer.is_virtual() ? 1 : 0;
  mine.node = ctx.comm->node_of(ctx.comm->rank());
  mine.node_available = ctx.memory->available(mine.node);
  // With node leaders on, the metadata allgather itself goes hierarchical:
  // O(nodes) NIC messages instead of O(ranks).
  const auto all = ctx.comm->allgather(mine, ctx.hints.cb_node_leaders);
  io::PlanKey key(ctx, name());
  key.add(config_.msg_group)
      .add(config_.msg_ind)
      .add(config_.mem_min)
      .add(static_cast<std::uint64_t>(config_.n_ah))
      .add(config_.group_division ? 1 : 0)
      .add(config_.remerging ? 1 : 0)
      .add(config_.memory_aware ? 1 : 0)
      .add(ctx.hints.fault_shrink_floor)
      .add(ctx.hints.borrow_far_memory ? 1 : 0)
      .add(ctx.hints.borrow_donor_reserve);
  return io::share_exchange_plan(ctx, key.value(), [&] {
    return plan_from(config_, ctx, *all);
  });
}

void MccioDriver::write_all(io::CollContext& ctx,
                            const io::AccessPlan& plan) {
  io::TwoPhaseExchange exchange(ctx, plan, build_plan(ctx, plan));
  exchange.write();
}

void MccioDriver::read_all(io::CollContext& ctx,
                           const io::AccessPlan& plan) {
  io::TwoPhaseExchange exchange(ctx, plan, build_plan(ctx, plan));
  exchange.read();
}

}  // namespace mcio::core
