#include "sim/resource.h"

#include <algorithm>

#include "util/check.h"

namespace mcio::sim {

BandwidthQueue::BandwidthQueue(double bytes_per_sec, SimTime latency)
    : bw_(bytes_per_sec), latency_(latency) {
  MCIO_CHECK_GT(bw_, 0.0);
  MCIO_CHECK_GE(latency_, 0.0);
}

SimTime BandwidthQueue::serve(SimTime start, double bytes, double bw_scale,
                              SimTime extra_latency) {
  MCIO_CHECK_GE(bytes, 0.0);
  MCIO_CHECK_GT(bw_scale, 0.0);
  MCIO_CHECK_GE(extra_latency, 0.0);
  const SimTime begin = std::max(start, next_free_);
  const SimTime service = latency_ + extra_latency + bytes / (bw_ * bw_scale);
  const SimTime done = begin + service;
  next_free_ = done;
  total_bytes_ += bytes;
  ++total_requests_;
  return done;
}

void BandwidthQueue::reset_accounting() {
  total_bytes_ = 0.0;
  total_requests_ = 0;
}

}  // namespace mcio::sim
