// The baseline: ROMIO-style two-phase collective I/O.
//
// Aggregators are fixed at one process per node (the ROMIO default the
// paper compares against), the aggregate file region is divided evenly
// into one file domain per aggregator, and every aggregator uses the same
// cb_buffer_size aggregation buffer regardless of how much memory its node
// actually has — the rigidity MCCIO removes.
#pragma once

#include "io/driver.h"
#include "io/exchange.h"

namespace mcio::io {

class TwoPhaseDriver final : public CollectiveDriver {
 public:
  void write_all(CollContext& ctx, const AccessPlan& plan) override;
  void read_all(CollContext& ctx, const AccessPlan& plan) override;
  const char* name() const override { return "two-phase"; }

  /// The domain/aggregator decision: allgathers every rank's request
  /// bounds, then builds the collective's one shared plan
  /// (share_exchange_plan). Collective; exposed for tests.
  static std::shared_ptr<const ExchangePlan> build_plan(
      CollContext& ctx, const AccessPlan& plan);

  /// ROMIO default aggregator set: the lowest rank on each node, in rank
  /// order, optionally capped at cb_nodes.
  static std::vector<int> default_aggregators(const mpi::Comm& comm,
                                              int cb_nodes);

};

}  // namespace mcio::io
