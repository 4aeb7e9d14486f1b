#include "core/aggregator_location.h"

#include <algorithm>
#include <map>
#include <optional>

#include "util/check.h"

namespace mcio::core {

using util::Extent;

namespace {

constexpr std::uint64_t kBufferFloor = 64ull << 10;

struct Candidate {
  int node = -1;
  std::uint64_t available = 0;
  std::vector<int> ranks;  ///< candidate ranks on this node, ascending
};

/// Hosts of the candidate ranks whose requests fall inside `domain`,
/// honouring the N_ah cap. `relax_cap` ignores the cap (fallback).
std::vector<Candidate> hosts_for_domain(const LocationInput& in,
                                        const std::vector<int>& candidates,
                                        const Extent& domain,
                                        bool relax_cap) {
  std::map<int, Candidate> by_node;
  for (const int r : candidates) {
    const auto ri = static_cast<std::size_t>(r);
    if (in.rank_bounds[ri].empty() ||
        !util::intersect(in.rank_bounds[ri], domain)) {
      continue;
    }
    const int node = in.rank_nodes[ri];
    if (!relax_cap &&
        (*in.node_aggregators)[static_cast<std::size_t>(node)] >=
            in.n_ah) {
      continue;
    }
    Candidate& c = by_node[node];
    c.node = node;
    c.available = (*in.node_available)[static_cast<std::size_t>(node)];
    c.ranks.push_back(r);
  }
  std::vector<Candidate> out;
  out.reserve(by_node.size());
  for (auto& [node, c] : by_node) out.push_back(std::move(c));
  return out;
}

/// Host with maximum Mem_avl (ties: lowest node id — deterministic). With
/// memory awareness off, the first related host wins regardless.
const Candidate* best_host(const std::vector<Candidate>& hosts,
                           bool memory_aware) {
  const Candidate* best = nullptr;
  for (const Candidate& c : hosts) {
    if (best == nullptr ||
        (memory_aware && c.available > best->available)) {
      best = &c;
    }
  }
  return best;
}

}  // namespace

io::FileDomain seat_aggregator(const LocationInput& in, int node,
                               const std::vector<int>& ranks,
                               io::FileDomain domain, bool undo) {
  int& seats = (*in.node_aggregators)[static_cast<std::size_t>(node)];
  std::uint64_t& avail =
      (*in.node_available)[static_cast<std::size_t>(node)];
  if (undo) {
    --seats;
    avail += domain.buffer_bytes;
    return domain;
  }
  // Stripe-aligned windows, never below one stripe.
  if (in.buffer_align > 1 && domain.buffer_bytes > in.buffer_align) {
    domain.buffer_bytes =
        domain.buffer_bytes / in.buffer_align * in.buffer_align;
  }
  domain.aggregator =
      ranks[static_cast<std::size_t>(seats) % ranks.size()];
  ++seats;
  avail = avail >= domain.buffer_bytes ? avail - domain.buffer_bytes : 0;
  return domain;
}

std::vector<io::FileDomain> locate_aggregators(PartitionTree& tree,
                                               const LocationInput& in) {
  MCIO_CHECK(in.node_available != nullptr);
  MCIO_CHECK(in.node_aggregators != nullptr);
  MCIO_CHECK_EQ(in.rank_bounds.size(), in.rank_nodes.size());
  MCIO_CHECK_GT(in.msg_ind, 0u);
  MCIO_CHECK_GE(in.n_ah, 1);

  std::vector<int> candidates = in.candidate_ranks;
  if (candidates.empty()) {
    for (std::size_t r = 0; r < in.rank_bounds.size(); ++r) {
      if (!in.rank_bounds[r].empty()) candidates.push_back(static_cast<
                                          int>(r));
    }
  }

  // One slot per examined leaf, so a left-absorbing remerge can withdraw
  // an earlier placement (or an earlier hole) by position.
  std::vector<std::optional<io::FileDomain>> placed;
  auto leaves = tree.leaf_ids();
  std::size_t i = 0;
  while (i < leaves.size()) {
    const int leaf = leaves[i];
    const Extent ext = tree.extent_of(leaf);

    auto hosts = hosts_for_domain(in, candidates, ext, /*relax_cap=*/false);
    const Candidate* pick = best_host(hosts, in.memory_aware);

    if (pick == nullptr) {
      // Either nobody touches this domain, or every related host is at
      // the N_ah cap. Retry without the cap before giving up.
      hosts = hosts_for_domain(in, candidates, ext, /*relax_cap=*/true);
      pick = best_host(hosts, in.memory_aware);
      if (pick == nullptr && !in.candidate_ranks.empty()) {
        // Restricted candidate set (a group's own ranks) and none of
        // them touch the domain — but in interleaved layouts ranks from
        // *other* groups may still have data here, and a domain that is
        // never emitted silently drops their bytes from the exchange.
        // Widen the search to every data-bearing rank before calling it
        // a hole.
        std::vector<int> everyone;
        for (std::size_t r = 0; r < in.rank_bounds.size(); ++r) {
          if (!in.rank_bounds[r].empty()) {
            everyone.push_back(static_cast<int>(r));
          }
        }
        hosts = hosts_for_domain(in, everyone, ext, /*relax_cap=*/false);
        pick = best_host(hosts, in.memory_aware);
        if (pick == nullptr) {
          hosts = hosts_for_domain(in, everyone, ext, /*relax_cap=*/true);
          pick = best_host(hosts, in.memory_aware);
        }
      }
      if (pick == nullptr) {
        // A true hole: no rank's request intersects. No data can flow
        // here, so the domain is simply not emitted.
        placed.emplace_back(std::nullopt);
        ++i;
        continue;
      }
    }

    std::uint64_t buffer = std::min<std::uint64_t>(in.msg_ind, ext.len);
    // §3.3: the host qualifies when its available memory reaches Mem_min;
    // the buffer is then sized to what the host can actually back.
    const bool satisfies =
        !in.memory_aware || pick->available >= in.mem_min;

    if (!satisfies && in.remerging && tree.num_leaves() > 1) {
      // §3.3: not enough aggregation memory on any related host — the
      // file domain is integrated with the domain nearby and the hosts
      // are inspected again.
      const int absorber = tree.remerge_into_neighbor(leaf);
      MCIO_CHECK_GE(absorber, 0);
      if (in.remerges != nullptr) ++(*in.remerges);
      const bool absorbed_left =
          tree.extent_of(absorber).offset < ext.offset;
      leaves = tree.leaf_ids();
      if (absorbed_left) {
        // The already-examined left neighbour took over: withdraw its
        // placement (if any) and re-run location on the merged domain.
        MCIO_CHECK_GT(i, 0u);
        --i;
        MCIO_CHECK_EQ(placed.size(), i + 1);
        if (placed.back().has_value()) {
          const io::FileDomain& undo = *placed.back();
          seat_aggregator(
              in, in.rank_nodes[static_cast<std::size_t>(undo.aggregator)],
              {}, undo, /*undo=*/true);
        }
        placed.pop_back();
      }
      continue;  // re-examine leaves[i], now the merged domain
    }

    // Memory-conscious buffer sizing: the host's available memory, shared
    // across the aggregator slots it can still *usefully* host — a slot
    // is only worth taking if its share stays above Mem_min, so scarce
    // nodes host one well-fed aggregator instead of N_ah starved ones.
    const std::uint64_t min_buffer =
        std::max<std::uint64_t>(in.buffer_align, kBufferFloor);
    if (in.memory_aware) {
      const int count =
          (*in.node_aggregators)[static_cast<std::size_t>(pick->node)];
      const std::uint64_t slots_by_mem = std::max<std::uint64_t>(
          1, pick->available / std::max(min_buffer, in.mem_min));
      const std::uint64_t slots_left = std::max<std::uint64_t>(
          1, std::min<std::uint64_t>(
                 static_cast<std::uint64_t>(std::max(1, in.n_ah - count)),
                 slots_by_mem));
      buffer = std::min<std::uint64_t>(
          ext.len, std::max<std::uint64_t>(pick->available / slots_left,
                                           min_buffer));
    }
    placed.emplace_back(seat_aggregator(in, pick->node, pick->ranks,
                                        io::FileDomain{ext, -1, buffer}));
    ++i;
  }
  std::vector<io::FileDomain> out;
  out.reserve(placed.size());
  for (const auto& d : placed) {
    if (d.has_value()) out.push_back(*d);
  }
  return out;
}

}  // namespace mcio::core
