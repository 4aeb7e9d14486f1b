#include "core/group_division.h"

#include <algorithm>
#include <numeric>

#include "util/check.h"

namespace mcio::core {

using util::Extent;

bool is_serial_distribution(const std::vector<Extent>& rank_bounds) {
  std::vector<const Extent*> with_data;
  for (const Extent& e : rank_bounds) {
    if (!e.empty()) with_data.push_back(&e);
  }
  std::sort(with_data.begin(), with_data.end(),
            [](const Extent* a, const Extent* b) {
              return a->offset < b->offset;
            });
  for (std::size_t i = 1; i < with_data.size(); ++i) {
    if (with_data[i]->offset < with_data[i - 1]->end()) return false;
  }
  return true;
}

namespace {

std::vector<AggregationGroup> divide_serial(const GroupDivisionInput& in) {
  // Linearize: ranks with data in increasing start-offset order (Fig 4).
  std::vector<int> order;
  for (std::size_t r = 0; r < in.rank_bounds.size(); ++r) {
    if (!in.rank_bounds[r].empty()) order.push_back(static_cast<int>(r));
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return in.rank_bounds[static_cast<std::size_t>(a)].offset <
           in.rank_bounds[static_cast<std::size_t>(b)].offset;
  });

  // Last position of each process's node in the order: a cut at i is a
  // true node boundary only when every node seen in order[0..i] occurs
  // nowhere after i — otherwise the cut would split a physical node
  // across groups (the Fig 4 invariant), which a simple adjacent-node
  // comparison misses when a node's ranks are non-contiguous in offset
  // order.
  std::vector<std::size_t> last_pos;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const auto node = static_cast<std::size_t>(
        in.rank_nodes[static_cast<std::size_t>(order[i])]);
    if (node >= last_pos.size()) last_pos.resize(node + 1, 0);
    last_pos[node] = i;
  }

  std::vector<AggregationGroup> groups;
  AggregationGroup cur;
  std::uint64_t accumulated = 0;
  std::size_t open_until = 0;  ///< max last_pos over nodes seen so far
  for (std::size_t i = 0; i < order.size(); ++i) {
    const int r = order[i];
    const Extent& b = in.rank_bounds[static_cast<std::size_t>(r)];
    if (cur.ranks.empty()) cur.region.offset = b.offset;
    cur.ranks.push_back(r);
    accumulated += b.len;
    cur.region.len = b.end() - cur.region.offset;
    open_until = std::max(
        open_until,
        last_pos[static_cast<std::size_t>(
            in.rank_nodes[static_cast<std::size_t>(r)])]);
    // Cut once the group reached Msg_group — but only at a compute-node
    // boundary, extending the group to the ending offset of the data of
    // the last process on the current node (Fig 4). Msg_group == 0 means
    // no threshold: everything stays in one group.
    const bool last = i + 1 == order.size();
    const bool node_boundary = open_until == i;
    const bool reached = in.msg_group > 0 && accumulated >= in.msg_group;
    if (last || (reached && node_boundary)) {
      groups.push_back(std::move(cur));
      cur = AggregationGroup{};
      accumulated = 0;
    }
  }
  return groups;
}

}  // namespace

std::vector<AggregationGroup> divide_interleaved(
    const GroupDivisionInput& in) {
  // Aggregate-view analysis: chunk the global file region and partition
  // the compute nodes contiguously across the chunks. One pass marks the
  // data-bearing nodes, one assigns each node its group, one deals the
  // ranks out: O(ranks + nodes).
  std::uint64_t gmin = UINT64_MAX;
  std::uint64_t gmax = 0;
  std::vector<int> group_of_node;  ///< by node id; -1 = no data (yet)
  for (std::size_t r = 0; r < in.rank_bounds.size(); ++r) {
    const Extent& b = in.rank_bounds[r];
    if (b.empty()) continue;
    gmin = std::min(gmin, b.offset);
    gmax = std::max(gmax, b.end());
    const int node = in.rank_nodes[r];
    MCIO_CHECK_GE(node, 0);
    const auto n = static_cast<std::size_t>(node);
    if (n >= group_of_node.size()) group_of_node.resize(n + 1, -1);
    group_of_node[n] = 0;
  }
  const std::uint64_t span = gmax - gmin;
  std::vector<int> nodes;  ///< data-bearing nodes, ascending
  for (std::size_t n = 0; n < group_of_node.size(); ++n) {
    if (group_of_node[n] == 0) nodes.push_back(static_cast<int>(n));
  }
  const auto num_nodes = static_cast<std::uint64_t>(nodes.size());
  // Msg_group == 0 means no division (one group); the clamp keeps the
  // group count in [1, nodes] even when every node's data exceeds
  // Msg_group (g would otherwise outrun the nodes available to staff the
  // groups).
  std::uint64_t g =
      in.msg_group == 0 ? 1 : (span + in.msg_group - 1) / in.msg_group;
  g = std::clamp<std::uint64_t>(g, 1, std::max<std::uint64_t>(num_nodes, 1));

  // Weight of one node (uniform when no weights are supplied).
  const auto weight_of = [&](int node) {
    const auto i = static_cast<std::size_t>(node);
    if (i < in.node_weights.size() && in.node_weights[i] > 0.0) {
      return in.node_weights[i];
    }
    return in.node_weights.empty() ? 1.0 : 0.0;
  };

  std::vector<AggregationGroup> groups;
  std::uint64_t pos = gmin;
  double total_weight = 0.0;
  for (const int n : nodes) total_weight += weight_of(n);
  double weight_done = 0.0;
  // Nodes of shares that got no group (the region ran out first, or an
  // empty region) keep -1 and their ranks join no group.
  for (const int n : nodes) group_of_node[static_cast<std::size_t>(n)] = -1;
  for (std::uint64_t i = 0; i < g && pos < gmax; ++i) {
    AggregationGroup grp;
    // Contiguous node share [i*N/g, (i+1)*N/g).
    const auto lo = static_cast<std::size_t>(i * num_nodes / g);
    const auto hi = static_cast<std::size_t>((i + 1) * num_nodes / g);
    double share_weight = 0.0;
    for (std::size_t k = lo; k < hi; ++k) share_weight += weight_of(nodes[k]);
    // Region sized proportionally to the share's aggregation memory
    // (§3.1's balanced memory-consumption design); uniform when no
    // weights are given.
    std::uint64_t len;
    if (i + 1 == g || total_weight <= 0.0) {
      len = gmax - pos;
    } else {
      weight_done += share_weight;
      const std::uint64_t end_target =
          gmin + static_cast<std::uint64_t>(
                     static_cast<double>(span) *
                     (weight_done / std::max(total_weight, 1e-12)));
      len = end_target > pos ? end_target - pos : 0;
      if (in.align > 1 && len > 0) {
        len = (len + in.align / 2) / in.align * in.align;
      }
      len = std::min(len, gmax - pos);
    }
    grp.region = Extent{pos, len};
    pos += len;
    if (grp.region.empty()) continue;
    for (std::size_t k = lo; k < hi; ++k) {
      group_of_node[static_cast<std::size_t>(nodes[k])] =
          static_cast<int>(groups.size());
    }
    groups.push_back(std::move(grp));
  }
  for (std::size_t r = 0; r < in.rank_bounds.size(); ++r) {
    if (in.rank_bounds[r].empty()) continue;
    const int gi = group_of_node[static_cast<std::size_t>(in.rank_nodes[r])];
    if (gi >= 0) {
      groups[static_cast<std::size_t>(gi)].ranks.push_back(
          static_cast<int>(r));
    }
  }
  // Any unconsumed tail (alignment rounding) joins the last group.
  if (!groups.empty() && pos < gmax) {
    groups.back().region.len += gmax - pos;
  }
  return groups;
}

std::vector<AggregationGroup> divide_groups(const GroupDivisionInput& in) {
  MCIO_CHECK_EQ(in.rank_bounds.size(), in.rank_nodes.size());
  bool any = false;
  for (const Extent& e : in.rank_bounds) any = any || !e.empty();
  if (!any) return {};
  if (is_serial_distribution(in.rank_bounds)) return divide_serial(in);
  return divide_interleaved(in);
}

}  // namespace mcio::core
