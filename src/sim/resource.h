// Contended bandwidth resources.
//
// NICs, node memory buses and OSTs are modelled as FIFO bandwidth servers:
// a transfer occupies the resource for latency + bytes/bandwidth starting
// no earlier than the end of the previous transfer. Queueing delay under
// load is how contention (the paper's off-chip bandwidth pressure and I/O
// server congestion) emerges.
#pragma once

#include <cstdint>

#include "sim/time.h"

namespace mcio::sim {

class BandwidthQueue {
 public:
  /// `bytes_per_sec` must be positive; `latency` is charged per served
  /// request (RPC/packet overhead).
  explicit BandwidthQueue(double bytes_per_sec, SimTime latency = 0.0);

  /// Serves `bytes` starting no earlier than `start`. `bw_scale` scales the
  /// effective bandwidth of this request only (e.g. paging pressure);
  /// `extra_latency` adds request-specific latency (e.g. a disk seek).
  /// Returns the completion time and advances the busy horizon.
  SimTime serve(SimTime start, double bytes, double bw_scale = 1.0,
                SimTime extra_latency = 0.0);

  /// Earliest time a new request could begin service.
  SimTime next_free() const { return next_free_; }

  // Accounting.
  double total_bytes() const { return total_bytes_; }
  std::uint64_t total_requests() const { return total_requests_; }

  void reset_accounting();

 private:
  double bw_;
  SimTime latency_;
  SimTime next_free_ = 0.0;
  double total_bytes_ = 0.0;
  std::uint64_t total_requests_ = 0;
};

}  // namespace mcio::sim
