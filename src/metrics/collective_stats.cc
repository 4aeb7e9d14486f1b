#include "metrics/collective_stats.h"

namespace mcio::metrics {

void CollectiveStats::record_aggregator(const AggregatorRecord& record) {
  // Vector order feeds buffer_stats()' floating-point accumulation, so
  // insertions follow the engine's deterministic slice order.
  aggregators_.push_back(record);
}

void CollectiveStats::record_shuffle(int src_node, int dst_node,
                                     std::uint64_t bytes) {
  if (src_node == dst_node) {
    bump(intra_node_bytes_, bytes);
  } else {
    bump(inter_node_bytes_, bytes);
  }
}

util::RunningStats CollectiveStats::buffer_stats() const {
  util::RunningStats s;
  for (const auto& a : aggregators_) {
    s.add(static_cast<double>(a.buffer_bytes));
  }
  return s;
}

util::RunningStats CollectiveStats::pressure_stats() const {
  util::RunningStats s;
  for (const auto& a : aggregators_) s.add(a.pressure);
  return s;
}

std::map<int, std::uint64_t> CollectiveStats::per_node_buffer_bytes()
    const {
  std::map<int, std::uint64_t> out;
  for (const auto& a : aggregators_) out[a.node] += a.buffer_bytes;
  return out;
}

void CollectiveStats::clear() { *this = CollectiveStats(); }

}  // namespace mcio::metrics
