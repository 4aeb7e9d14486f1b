// Memory-Conscious Collective I/O — the paper's contribution (§3).
//
// The driver composes the four components of Figure 3 on top of the
// shared two-phase exchange engine:
//   1. Aggregation Group Division   (group_division.h, Fig 4)
//   2. I/O Workload Partition       (partition_tree.h, recursive bisection)
//   3. Workload Portion Remerging   (partition_tree remerge, Figs 5a/5b)
//   4. Aggregators Location         (aggregator_location.h)
//
// All decisions are made at run time from allgathered metadata — request
// bounds, node placement and each node's available memory. The decision
// pipeline runs once per collective, on the first rank to arrive, and
// every rank takes a pointer to that one immutable plan
// (io::share_exchange_plan).
#pragma once

#include "core/config.h"
#include "io/driver.h"
#include "io/exchange.h"

namespace mcio::core {

class MccioDriver final : public io::CollectiveDriver {
 public:
  MccioDriver() = default;
  explicit MccioDriver(const MccioConfig& config) : config_(config) {}

  void write_all(io::CollContext& ctx, const io::AccessPlan& plan) override;
  void read_all(io::CollContext& ctx, const io::AccessPlan& plan) override;
  const char* name() const override { return "mccio"; }

  const MccioConfig& config() const { return config_; }
  MccioConfig& config() { return config_; }

  /// The run-time decision pipeline, exposed for tests: allgathers every
  /// rank's metadata, then builds groups, partition trees, remerges and
  /// aggregator placements into the collective's one shared plan.
  /// Collective.
  std::shared_ptr<const io::ExchangePlan> build_plan(
      io::CollContext& ctx, const io::AccessPlan& plan) const;

 private:
  MccioConfig config_;
};

}  // namespace mcio::core
