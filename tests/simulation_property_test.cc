// System-level properties: bit-for-bit determinism, virtual-payload /
// real-payload timing equivalence, and round trips across a sweep of
// workload × driver × memory configurations.
#include <gtest/gtest.h>

#include <optional>
#include <ostream>
#include <string>

#include "testing.h"
#include "workloads/collperf.h"
#include "workloads/ior.h"
#include "workloads/strided.h"

namespace mcio {
namespace {

using mcio::testing::round_trip;

/// One collective write+read of an IOR shape through run_write_read on
/// the mini cluster, its memory drawn with 0.5 relative spread.
core::WriteReadResult ior_write_read(
    core::DriverKind kind, bool real_payloads,
    const std::optional<node::FaultConfig>& faults = std::nullopt) {
  core::StackConfig config = mcio::testing::mini_stack();
  config.mem_variance.relative_stdev = 0.5;
  config.faults = faults;
  core::SimStack cluster(config);
  core::MccioConfig mccio;
  mccio.msg_ind = 256 << 10;

  workloads::IorConfig w;
  w.block_size = 256 << 10;
  w.transfer_size = 32 << 10;
  w.segments = 2;
  w.interleaved = true;
  const std::uint64_t bytes = workloads::ior_bytes_per_rank(w);
  const int nranks = cluster.total_ranks();
  std::vector<std::vector<std::byte>> storage(
      static_cast<std::size_t>(nranks));
  return core::run_write_read(
      cluster, kind, mccio, io::Hints{}, nranks, [&](int rank, int p) {
        // One named return, so the plan is built in place (NRVO).
        std::vector<std::byte>& buf = storage[static_cast<std::size_t>(rank)];
        buf.resize(real_payloads ? bytes : 0);
        io::AccessPlan plan = workloads::ior_plan(
            rank, p, w,
            real_payloads ? util::Payload::of(buf)
                          : util::Payload::virtual_bytes(bytes));
        if (real_payloads) workloads::fill_pattern(plan, 5);
        return plan;
      });
}

TEST(SimulationProperties, DeterministicAcrossRuns) {
  for (const core::DriverKind kind :
       {core::DriverKind::kMccio, core::DriverKind::kTwoPhase}) {
    EXPECT_EQ(ior_write_read(kind, false).finish_times,
              ior_write_read(kind, false).finish_times)
        << core::driver_name(kind);
  }
}

TEST(SimulationProperties, VirtualAndRealPayloadsSameTiming) {
  // The whole point of virtual payloads: identical virtual-time behaviour
  // without the memory, for every driver, with and without a fault plan.
  // Finish times, bandwidths and inter-node bytes must be bit-identical.
  const node::FaultConfig faults{
      .denial_rate = 0.2, .revoke_rate = 0.1, .delay_rate = 0.1};
  for (const core::DriverKind kind :
       {core::DriverKind::kTwoPhase, core::DriverKind::kMccio,
        core::DriverKind::kIndependent}) {
    for (const bool faulted : {false, true}) {
      SCOPED_TRACE(std::string(core::driver_name(kind)) +
                   (faulted ? " with fault plan" : ""));
      const auto fault_plan =
          faulted ? std::optional(faults) : std::nullopt;
      const core::WriteReadResult real =
          ior_write_read(kind, true, fault_plan);
      const core::WriteReadResult virt =
          ior_write_read(kind, false, fault_plan);
      EXPECT_EQ(real.finish_times, virt.finish_times);
      EXPECT_EQ(real.write_bw, virt.write_bw);
      EXPECT_EQ(real.read_bw, virt.read_bw);
      EXPECT_EQ(real.write_stats.bytes_inter_node(),
                virt.write_stats.bytes_inter_node());
      EXPECT_EQ(real.read_stats.bytes_inter_node(),
                virt.read_stats.bytes_inter_node());
    }
  }
}

struct SweepParam {
  int workload;  // 0=strided, 1=ior interleaved, 2=ior segmented, 3=collperf
  bool mccio;
  std::uint64_t mem;
  double stdev;
};

/// Names a sweep point by its fields, so test names are the same in
/// every build (gtest's default prints the struct's bytes, padding
/// included).
void PrintTo(const SweepParam& p, std::ostream* os) {
  static constexpr const char* kWorkloads[] = {"strided", "ior-interleaved",
                                               "ior-segmented", "collperf"};
  *os << kWorkloads[p.workload] << (p.mccio ? "/mccio" : "/two-phase")
      << "/mem=" << p.mem << "/stdev=" << p.stdev;
}

class RoundTripSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(RoundTripSweep, VerifiedEndToEnd) {
  const auto param = GetParam();
  core::StackConfig opt = mcio::testing::mini_stack();
  opt.mem_mean = param.mem;
  opt.mem_variance.relative_stdev = param.stdev;
  core::SimStack cluster(opt);
  io::TwoPhaseDriver two_phase;
  core::MccioDriver mc;
  mc.config().msg_ind = 128 << 10;
  io::CollectiveDriver* driver =
      param.mccio ? static_cast<io::CollectiveDriver*>(&mc) : &two_phase;

  const auto factory = [&](int rank, int nprocs,
                           std::vector<std::byte>& storage)
      -> io::AccessPlan {
    switch (param.workload) {
      case 0: {
        workloads::StridedConfig cfg;
        cfg.block = 2000;
        cfg.stride = 4096;
        cfg.count = 7;
        storage.resize(workloads::strided_bytes_per_rank(cfg));
        return workloads::strided_plan(rank, nprocs, cfg,
                                       util::Payload::of(storage));
      }
      case 1:
      case 2: {
        workloads::IorConfig cfg;
        cfg.block_size = 64 << 10;
        cfg.transfer_size = 8 << 10;
        cfg.segments = 2;
        cfg.interleaved = param.workload == 1;
        storage.resize(workloads::ior_bytes_per_rank(cfg));
        return workloads::ior_plan(rank, nprocs, cfg,
                                   util::Payload::of(storage));
      }
      default: {
        workloads::CollPerfConfig cfg;
        cfg.dims = {24, 20, 16};
        storage.resize(
            workloads::collperf_bytes_per_rank(rank, nprocs, cfg));
        return workloads::collperf_plan(rank, nprocs, cfg,
                                        util::Payload::of(storage));
      }
    }
  };
  ASSERT_NO_THROW(round_trip(cluster, *driver, cluster.total_ranks(),
                             factory, /*seed=*/1000 + param.workload));
}

std::vector<SweepParam> sweep_params() {
  std::vector<SweepParam> out;
  for (int w = 0; w < 4; ++w) {
    for (const bool mccio : {false, true}) {
      for (const std::uint64_t mem :
           {std::uint64_t{256} << 10, std::uint64_t{2} << 20}) {
        for (const double stdev : {0.0, 0.7}) {
          out.push_back(SweepParam{w, mccio, mem, stdev});
        }
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, RoundTripSweep,
                         ::testing::ValuesIn(sweep_params()));

TEST(SimulationProperties, ManyRanksSmoke) {
  // A 120-rank run exercising the fiber scheduler at figure-7 scale.
  core::StackConfig opt = mcio::testing::mini_stack();
  opt.cluster.num_nodes = 10;
  opt.cluster.ranks_per_node = 12;
  opt.pfs.num_osts = 8;
  opt.pfs.stripe_unit = 64 << 10;
  opt.mem_mean = 1 << 20;
  opt.mem_variance.relative_stdev = 0.5;
  core::SimStack cluster(opt);
  core::MccioConfig mccio;
  mccio.msg_ind = 512 << 10;
  workloads::IorConfig w;
  w.block_size = 64 << 10;
  w.transfer_size = 16 << 10;
  w.segments = 1;
  w.interleaved = true;
  core::run_write_read(
      cluster, core::DriverKind::kMccio, mccio, io::Hints{}, 120,
      [&](int rank, int p) {
        return workloads::ior_plan(
            rank, p, w,
            util::Payload::virtual_bytes(workloads::ior_bytes_per_rank(w)));
      });
}

}  // namespace
}  // namespace mcio
