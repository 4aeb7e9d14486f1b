// Tests for the simulation Auditor (src/verify): seeded invariant
// violations must each produce a structured finding with an actionable
// diagnostic, and fault-free (including fault-injected but correct)
// collectives must stay zero-finding.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/mccio_driver.h"
#include "io/driver.h"
#include "io/exchange.h"
#include "io/mpi_file.h"
#include "io/two_phase_driver.h"
#include "testing.h"
#include "util/check.h"
#include "util/payload.h"
#include "verify/auditor.h"
#include "workloads/ior.h"

namespace mcio {
namespace {

/// The mini test cluster, audited in deferred mode: findings are kept
/// for the test to inspect.
core::StackConfig audited_stack() {
  core::StackConfig config = mcio::testing::mini_stack();
  config.audit = core::Audit::kDeferred;
  return config;
}

/// A test's view of an audited_stack()'s Auditor.
class StackAudit {
 public:
  explicit StackAudit(core::SimStack& cluster)
      : auditor_(*cluster.auditor()) {}

  verify::Auditor& auditor() { return auditor_; }

  /// Enforcing mode: machine.run throws at on_run_end when findings
  /// accumulated.
  void set_enforcing() { auditor_.set_deferred(false); }

  bool has(const std::string& kind) const {
    return !messages_of(kind).empty();
  }

  std::vector<std::string> messages_of(const std::string& kind) const {
    std::vector<std::string> out;
    for (const verify::Finding& f : auditor_.findings()) {
      if (f.kind == kind) out.push_back(f.message);
    }
    return out;
  }

 private:
  verify::Auditor& auditor_;
};

/// A deliberately buggy collective driver: writes each rank's own plan
/// directly (independent style), with a selectable seeded violation.
class SabotageDriver final : public io::CollectiveDriver {
 public:
  enum class Mode {
    kFaithful,       ///< writes exactly the plan — must stay zero-finding
    kDropLastByte,   ///< rank 0 writes one byte short of its first extent
    kDoubleWrite,    ///< rank 0 writes its first extent twice
    kUnplannedWrite, ///< rank 0 writes bytes nobody planned
    kLeakLease,      ///< rank 0 leaks a memory lease past collective end
  };

  explicit SabotageDriver(Mode mode) : mode_(mode) {}

  void write_all(io::CollContext& ctx, const io::AccessPlan& plan) override {
    const bool sabot = ctx.comm->rank() == 0;
    if (mode_ == Mode::kLeakLease && sabot) {
      leaked_.push_back(ctx.memory->lease(ctx.rank->node(), 4096));
    }
    std::uint64_t buf_off = 0;
    bool first = true;
    for (const util::Extent& e : plan.extents.runs()) {
      std::uint64_t len = e.len;
      if (first && sabot && mode_ == Mode::kDropLastByte) len = e.len - 1;
      ctx.fs->write(ctx.rank->actor(), ctx.file, e.offset,
                    util::ConstPayload::real(plan.buffer.data + buf_off,
                                             len));
      if (first && sabot && mode_ == Mode::kDoubleWrite) {
        ctx.fs->write(ctx.rank->actor(), ctx.file, e.offset,
                      util::ConstPayload::real(plan.buffer.data + buf_off,
                                               e.len));
      }
      buf_off += e.len;
      first = false;
    }
    if (sabot && mode_ == Mode::kUnplannedWrite) {
      const std::byte junk[16] = {};
      ctx.fs->write(ctx.rank->actor(), ctx.file, 1u << 20,
                    util::ConstPayload::real(junk, sizeof junk));
    }
    ctx.comm->barrier();
  }

  void read_all(io::CollContext& ctx, const io::AccessPlan& plan) override {
    std::uint64_t buf_off = 0;
    for (const util::Extent& e : plan.extents.runs()) {
      ctx.fs->read(ctx.rank->actor(), ctx.file, e.offset,
                   util::Payload::real(plan.buffer.data + buf_off, e.len));
      buf_off += e.len;
    }
    ctx.comm->barrier();
  }

  const char* name() const override { return "sabotage"; }

  /// Leaked leases survive until the driver dies — after machine.run.
  std::vector<node::Lease> leaked_;

 private:
  Mode mode_;
};

/// Runs one collective write (and optionally a read-back) of 64 B per
/// rank through `driver` on an audited core::SimStack.
void run_collective(core::SimStack& cluster, io::CollectiveDriver& driver,
                    bool also_read = false) {
  cluster.machine().run(
      cluster.total_ranks(), [&](mpi::Rank& rank) {
        std::vector<std::byte> buf(64);
        const io::AccessPlan plan(
            util::ExtentList::normalize(
                {{static_cast<std::uint64_t>(rank.rank()) * 64, 64}}),
            util::Payload::of(buf));
        io::MPIFile file(rank, rank.world(), cluster.services(), "/audit",
                         /*create=*/true, io::Hints{}, &driver);
        file.write_all_plan(plan);
        if (also_read) file.read_all_plan(plan);
      });
}

TEST(Auditor, FaithfulCollectiveIsZeroFinding) {
  core::SimStack cluster(audited_stack());
  StackAudit audit(cluster);
  SabotageDriver driver(SabotageDriver::Mode::kFaithful);
  run_collective(cluster, driver, /*also_read=*/true);
  EXPECT_TRUE(audit.auditor().clean()) << audit.auditor().report();
  const verify::AuditCounters& c = audit.auditor().counters();
  EXPECT_EQ(c.runs, 1u);
  EXPECT_EQ(c.collectives, 2u);  // one write epoch + one read epoch
  EXPECT_GT(c.pfs_writes, 0u);
  EXPECT_GT(c.messages, 0u);
  EXPECT_EQ(c.findings, 0u);
}

TEST(Auditor, DroppedByteIsReported) {
  core::SimStack cluster(audited_stack());
  StackAudit audit(cluster);
  SabotageDriver driver(SabotageDriver::Mode::kDropLastByte);
  run_collective(cluster, driver);
  const auto msgs = audit.messages_of("byte-loss");
  ASSERT_EQ(msgs.size(), 1u) << audit.auditor().report();
  // The diagnostic names the missing byte: rank 0's extent is [0,64), so
  // byte 63 never lands.
  EXPECT_NE(msgs[0].find("1 B in [63,64)"), std::string::npos) << msgs[0];
  EXPECT_NE(msgs[0].find("collective write"), std::string::npos);
}

TEST(Auditor, DoubleWriteIsReported) {
  core::SimStack cluster(audited_stack());
  StackAudit audit(cluster);
  SabotageDriver driver(SabotageDriver::Mode::kDoubleWrite);
  run_collective(cluster, driver);
  const auto msgs = audit.messages_of("byte-duplicate");
  ASSERT_EQ(msgs.size(), 1u) << audit.auditor().report();
  EXPECT_NE(msgs[0].find("[0,64)"), std::string::npos) << msgs[0];
  EXPECT_FALSE(audit.has("byte-loss")) << audit.auditor().report();
}

TEST(Auditor, UnplannedWriteIsReported) {
  core::SimStack cluster(audited_stack());
  StackAudit audit(cluster);
  SabotageDriver driver(SabotageDriver::Mode::kUnplannedWrite);
  run_collective(cluster, driver);
  const auto msgs = audit.messages_of("unplanned-write");
  ASSERT_EQ(msgs.size(), 1u) << audit.auditor().report();
  EXPECT_NE(msgs[0].find("[1048576,1048592)"), std::string::npos) << msgs[0];
}

/// Rank r plans [32r, 32r + 64), so neighbours overlap by 32 B; rank 0
/// alone writes the union once, optionally skipping one byte.
class UnionWriter final : public io::CollectiveDriver {
 public:
  explicit UnionWriter(std::uint64_t skip = ~std::uint64_t{0}) : skip_(skip) {}

  void write_all(io::CollContext& ctx, const io::AccessPlan& plan) override {
    (void)plan;
    if (ctx.comm->rank() == 0) {
      const std::uint64_t end =
          static_cast<std::uint64_t>(ctx.comm->size() - 1) * 32 + 64;
      const std::vector<std::byte> bytes(end);
      const auto write = [&](std::uint64_t from, std::uint64_t to) {
        if (from >= to) return;
        ctx.fs->write(ctx.rank->actor(), ctx.file, from,
                      util::ConstPayload::real(bytes.data(), to - from));
      };
      write(0, std::min(skip_, end));
      if (skip_ < end) write(skip_ + 1, end);
    }
    ctx.comm->barrier();
  }

  void read_all(io::CollContext& ctx, const io::AccessPlan& plan) override {
    (void)plan;
    ctx.comm->barrier();
  }

  const char* name() const override { return "union"; }

 private:
  std::uint64_t skip_;
};

void run_overlapping_plans(core::SimStack& cluster, UnionWriter& driver) {
  cluster.machine().run(
      cluster.total_ranks(), [&](mpi::Rank& rank) {
        std::vector<std::byte> buf(64);
        const io::AccessPlan plan(
            util::ExtentList::normalize(
                {{static_cast<std::uint64_t>(rank.rank()) * 32, 64}}),
            util::Payload::of(buf));
        io::MPIFile file(rank, rank.world(), cluster.services(), "/audit",
                         /*create=*/true, io::Hints{}, &driver);
        file.write_all_plan(plan);
      });
}

TEST(Auditor, OverlappingPlansWrittenOnceAreZeroFinding) {
  core::SimStack cluster(audited_stack());
  ASSERT_GE(cluster.total_ranks(), 2);
  StackAudit audit(cluster);
  UnionWriter driver;
  run_overlapping_plans(cluster, driver);
  EXPECT_TRUE(audit.auditor().clean()) << audit.auditor().report();
  EXPECT_EQ(audit.auditor().counters().collectives, 1u);
}

TEST(Auditor, ByteDroppedInsideAPlanOverlapIsReported) {
  core::SimStack cluster(audited_stack());
  StackAudit audit(cluster);
  UnionWriter driver(/*skip=*/40);  // ranks 0 and 1 both plan [32,64)
  run_overlapping_plans(cluster, driver);
  ASSERT_EQ(audit.auditor().findings().size(), 1u) << audit.auditor().report();
  const auto msgs = audit.messages_of("byte-loss");
  ASSERT_EQ(msgs.size(), 1u) << audit.auditor().report();
  EXPECT_NE(msgs[0].find("1 B in [40,41)"), std::string::npos) << msgs[0];
}

/// Findings of one write epoch driven straight through the observer
/// hooks: rank r submits plans[r], and rank 0 writes `writes`.
std::vector<verify::Finding> audit_epoch(
    const std::vector<std::vector<util::Extent>>& plans,
    const std::vector<util::Extent>& writes) {
  verify::Auditor auditor;
  auditor.set_deferred(true);
  const int fs = 0;  // any stable address names the file system
  const int ranks = static_cast<int>(plans.size());
  auditor.on_engine_start(ranks);
  for (int r = 0; r < ranks; ++r) {
    auditor.on_collective_begin(&fs, 0, true, ranks, r,
                                plans[static_cast<std::size_t>(r)]);
  }
  auditor.on_actor_resumed(0, 0.0);
  for (const util::Extent& w : writes) {
    auditor.on_pfs_write(&fs, 0, w.offset, w.len);
  }
  auditor.on_actor_yielded(0, 0.0);
  for (int r = 0; r < ranks; ++r) {
    auditor.on_collective_end(&fs, 0, true, r);
  }
  return auditor.findings();
}

TEST(Auditor, UnsortedPlanSpanGivesTheSortedVerdict) {
  const std::vector<util::Extent> rank0 = {{0, 10}, {20, 10}, {40, 10}};
  const std::vector<util::Extent> rank1 = {{5, 15}, {30, 5}, {60, 4}};
  // [0,2) is written twice, byte 44 is lost, [50,60) is unplanned.
  const std::vector<util::Extent> writes = {{0, 35}, {0, 2}, {40, 4}, {45, 19}};
  const auto sorted = audit_epoch({rank0, rank1}, writes);
  ASSERT_EQ(sorted.size(), 3u);
  const std::vector<util::Extent> r0(rank0.rbegin(), rank0.rend());
  const std::vector<util::Extent> r1 = {{60, 4}, {5, 15}, {30, 5}};
  const auto unsorted = audit_epoch({r0, r1}, writes);
  ASSERT_EQ(unsorted.size(), sorted.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_EQ(unsorted[i].kind, sorted[i].kind);
    EXPECT_EQ(unsorted[i].message, sorted[i].message);
  }
  EXPECT_EQ(sorted[0].kind, "byte-duplicate");
  EXPECT_EQ(sorted[1].kind, "byte-loss");
  EXPECT_NE(sorted[1].message.find("1 B in [44,45)"), std::string::npos)
      << sorted[1].message;
  EXPECT_EQ(sorted[2].kind, "unplanned-write");
  EXPECT_NE(sorted[2].message.find("10 B in [50,60)"), std::string::npos)
      << sorted[2].message;
}

TEST(Auditor, LeakedLeaseIsReported) {
  core::SimStack cluster(audited_stack());
  StackAudit audit(cluster);
  SabotageDriver driver(SabotageDriver::Mode::kLeakLease);
  run_collective(cluster, driver);
  const auto msgs = audit.messages_of("lease-leak");
  ASSERT_EQ(msgs.size(), 1u) << audit.auditor().report();
  EXPECT_NE(msgs[0].find("4096 B"), std::string::npos) << msgs[0];
  EXPECT_NE(msgs[0].find("node 0"), std::string::npos) << msgs[0];
  driver.leaked_.clear();  // release outside the epoch: legal
}

TEST(Auditor, EnforcingModeFailsTheRun) {
  core::SimStack cluster(audited_stack());
  StackAudit audit(cluster);
  audit.set_enforcing();
  SabotageDriver driver(SabotageDriver::Mode::kDropLastByte);
  try {
    run_collective(cluster, driver);
    FAIL() << "expected the audit to fail the run";
  } catch (const util::Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("simulation audit failed"), std::string::npos) << msg;
    EXPECT_NE(msg.find("byte-loss"), std::string::npos) << msg;
  }
  // Findings are consumed by the throw: the next run starts clean.
  EXPECT_TRUE(audit.auditor().clean());
}

TEST(Auditor, SeededDeadlockNamesFibersTagsAndCycle) {
  core::SimStack cluster(audited_stack());
  StackAudit audit(cluster);
  try {
    cluster.machine().run(3, [](mpi::Rank& rank) {
      // Cyclic receive: every rank waits on its successor, nobody sends.
      std::byte buf[8];
      rank.world().recv((rank.rank() + 1) % 3, /*tag=*/7,
                        util::Payload::real(buf, sizeof buf), nullptr);
    });
    FAIL() << "expected a deadlock";
  } catch (const util::Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("deadlock"), std::string::npos) << msg;
    EXPECT_NE(msg.find("blocked in recv(src=1, tag=7"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("wait-for cycle"), std::string::npos) << msg;
    EXPECT_NE(msg.find("rank 0 -> rank 1 -> rank 2 -> rank 0"),
              std::string::npos)
        << msg;
  }
  EXPECT_TRUE(audit.has("deadlock")) << audit.auditor().report();
}

TEST(Auditor, OrphanMessageIsReported) {
  core::SimStack cluster(audited_stack());
  StackAudit audit(cluster);
  cluster.machine().run(2, [](mpi::Rank& rank) {
    if (rank.rank() == 0) {
      const std::byte b[4] = {};
      rank.world().send(1, /*tag=*/99,
                        util::ConstPayload::real(b, sizeof b));
    }
  });
  const auto msgs = audit.messages_of("orphan-message");
  ASSERT_EQ(msgs.size(), 1u) << audit.auditor().report();
  EXPECT_NE(msgs[0].find("tag 99"), std::string::npos) << msgs[0];
  EXPECT_NE(msgs[0].find("never received"), std::string::npos) << msgs[0];
  EXPECT_EQ(audit.auditor().counters().unexpected, 1u);

  // Several leftovers on two tags, one key partly drained: rank 1 takes
  // the first of three tag-7 messages, so two of them and both tag-8
  // messages stay queued. Each must be reported exactly once, and the
  // sweep must report them identically on every run.
  const auto leftovers = [] {
    core::SimStack fresh(audited_stack());
    StackAudit a(fresh);
    fresh.machine().run(2, [](mpi::Rank& rank) {
      const std::byte b[5] = {};
      if (rank.rank() == 0) {
        for (const std::size_t n : {1, 2, 3}) {
          rank.world().send(1, /*tag=*/7, util::ConstPayload::real(b, n));
        }
        for (const std::size_t n : {4, 5}) {
          rank.world().send(1, /*tag=*/8, util::ConstPayload::real(b, n));
        }
      } else {
        std::byte buf[5];
        rank.world().recv(0, /*tag=*/7, util::Payload::real(buf, sizeof buf));
      }
    });
    return a.messages_of("orphan-message");
  };
  const auto first = leftovers();
  ASSERT_EQ(first.size(), 4u);
  for (const char* want : {"tag 7, 2 B", "tag 7, 3 B", "tag 8, 4 B",
                           "tag 8, 5 B"}) {
    int seen = 0;
    for (const std::string& m : first) {
      seen += m.find(want) != std::string::npos ? 1 : 0;
    }
    EXPECT_EQ(seen, 1) << want;
  }
  EXPECT_EQ(leftovers(), first);
}

TEST(Auditor, OrphanRecvIsReported) {
  core::SimStack cluster(audited_stack());
  StackAudit audit(cluster);
  cluster.machine().run(2, [](mpi::Rank& rank) {
    if (rank.rank() == 0) {
      std::byte buf[4];
      mpi::Request req =
          rank.world().irecv(1, /*tag=*/5,
                             util::Payload::real(buf, sizeof buf));
      (void)req;  // never waited on, never matched
    }
  });
  const auto msgs = audit.messages_of("orphan-recv");
  ASSERT_EQ(msgs.size(), 1u) << audit.auditor().report();
  EXPECT_NE(msgs[0].find("tag=5"), std::string::npos) << msgs[0];
}

TEST(Auditor, TimeRegressionIsReported) {
  // The public Actor API cannot move a clock backwards, so feed the
  // monitor the event stream a broken scheduler would produce.
  verify::Auditor aud;
  aud.set_deferred(true);
  aud.on_engine_start(2);
  aud.on_actor_resumed(0, 1.0);
  aud.on_actor_yielded(0, 1.5);
  aud.on_actor_resumed(0, 0.25);  // regression
  ASSERT_EQ(aud.findings().size(), 1u);
  EXPECT_EQ(aud.findings()[0].kind, "time-regression");
  EXPECT_NE(aud.findings()[0].message.find("rank 0"), std::string::npos);
  // A fresh engine start resets the per-fiber watermarks.
  aud.clear_findings();
  aud.on_engine_start(2);
  aud.on_actor_resumed(0, 0.0);
  EXPECT_TRUE(aud.clean());
}

/// Runs one collective write of 64 B per rank where each rank brings its
/// own hints and driver (`setup` customizes them per rank); returns the
/// world communicator's id.
std::uint64_t run_per_rank_inputs(
    core::SimStack& cluster,
    const std::function<io::CollectiveDriver*(int rank, io::Hints*)>&
        setup) {
  std::uint64_t world_id = 0;
  cluster.machine().run(
      cluster.total_ranks(), [&](mpi::Rank& rank) {
        world_id = rank.world().id();
        std::vector<std::byte> buf(64);
        const io::AccessPlan plan(
            util::ExtentList::normalize(
                {{static_cast<std::uint64_t>(rank.rank()) * 64, 64}}),
            util::Payload::of(buf));
        io::Hints hints;
        io::CollectiveDriver* driver = setup(rank.rank(), &hints);
        io::MPIFile file(rank, rank.world(), cluster.services(), "/audit",
                         /*create=*/true, hints, driver);
        file.write_all_plan(plan);
      });
  return world_id;
}

TEST(Auditor, AgreeingPlanInputsAreZeroFinding) {
  core::SimStack cluster(audited_stack());
  StackAudit audit(cluster);
  core::MccioDriver driver;
  run_per_rank_inputs(cluster, [&](int, io::Hints*) { return &driver; });
  EXPECT_TRUE(audit.auditor().clean()) << audit.auditor().report();
  EXPECT_EQ(cluster.machine().plan_builds(), 1u);
}

TEST(Auditor, DivergentMccioConfigIsReported) {
  // One rank's driver asks for a different N_ah: an MPI process with that
  // driver would plan differently (deadlock or lost bytes), so taking the
  // shared plan must not pass silently.
  core::SimStack cluster(audited_stack());
  StackAudit audit(cluster);
  core::MccioDriver common;
  core::MccioConfig odd_cfg;
  odd_cfg.n_ah = 4;
  core::MccioDriver odd(odd_cfg);
  const std::uint64_t world_id = run_per_rank_inputs(
      cluster, [&](int r, io::Hints*) -> io::CollectiveDriver* {
        return r == 5 ? &odd : &common;
      });
  const auto msgs = audit.messages_of("plan-divergence");
  ASSERT_FALSE(msgs.empty()) << audit.auditor().report();
  const std::string comm = "on comm " + std::to_string(world_id);
  for (const std::string& m : msgs) {
    EXPECT_NE(m.find(comm), std::string::npos) << m;
    EXPECT_NE(m.find("collective #"), std::string::npos) << m;
    EXPECT_NE(m.find("planner inputs hash"), std::string::npos) << m;
  }
}

TEST(Auditor, DivergentHintFailsTheEnforcingRun) {
  core::SimStack cluster(audited_stack());
  StackAudit audit(cluster);
  audit.set_enforcing();
  io::TwoPhaseDriver driver;
  try {
    run_per_rank_inputs(cluster, [&](int r, io::Hints* hints) {
      if (r == 2) hints->cb_nodes = 1;
      return &driver;
    });
    FAIL() << "expected the audit to fail the run";
  } catch (const util::Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("plan-divergence"), std::string::npos) << msg;
    EXPECT_NE(msg.find("collective #"), std::string::npos) << msg;
  }
}

TEST(Auditor, ChangedDonorElectionIsReported) {
  // A plan recording a donor election that no longer holds on the taking
  // rank (here: a request no node can ever grant) is flagged by every
  // audited rank's re-check.
  core::SimStack cluster(audited_stack());
  StackAudit audit(cluster);
  cluster.machine().run(2, [&](mpi::Rank& rank) {
    io::CollContext ctx;
    ctx.rank = &rank;
    ctx.comm = &rank.world();
    ctx.fs = &cluster.fs();
    ctx.memory = &cluster.memory();
    const auto xplan = io::share_exchange_plan(ctx, 42, [] {
      io::ExchangePlan p;
      p.rank_bounds.resize(2);
      p.donor_elections.push_back(
          io::DonorElection{0, std::uint64_t{1} << 60, 0, 1});
      return p;
    });
    EXPECT_EQ(xplan->donor_elections.size(), 1u);
  });
  const auto msgs = audit.messages_of("plan-divergence");
  ASSERT_EQ(msgs.size(), 2u) << audit.auditor().report();
  EXPECT_NE(msgs[0].find("donor elections"), std::string::npos) << msgs[0];
}

TEST(Auditor, UntakenSharedPlanIsReported) {
  // Only rank 0 takes the shared plan: the memo entry outlives the run
  // and the end-of-run sweep reports it like an orphan message.
  core::SimStack cluster(audited_stack());
  StackAudit audit(cluster);
  cluster.machine().run(2, [](mpi::Rank& rank) {
    rank.world().barrier();
    if (rank.rank() == 0) {
      (void)rank.world().share_plan(
          7, [] { return std::make_shared<const int>(1); });
    }
  });
  const auto msgs = audit.messages_of("orphan-plan");
  ASSERT_EQ(msgs.size(), 1u) << audit.auditor().report();
  EXPECT_NE(msgs[0].find("taken by only 1 of its 2 ranks"),
            std::string::npos)
      << msgs[0];
  EXPECT_NE(msgs[0].find("collective #1"), std::string::npos) << msgs[0];
}

io::AccessPlan ior_factory(int rank, int nprocs,
                           std::vector<std::byte>& storage) {
  workloads::IorConfig cfg;
  cfg.block_size = 64 << 10;
  cfg.transfer_size = 8 << 10;
  cfg.segments = 2;
  cfg.interleaved = true;
  storage.resize(workloads::ior_bytes_per_rank(cfg));
  return workloads::ior_plan(rank, nprocs, cfg, util::Payload::of(storage));
}

/// The degradation ladder under memory faults must stay invariant-clean:
/// denials, delays, revocations and spills are legal behaviours, not
/// conservation violations.
TEST(Auditor, FaultMatrixStaysZeroFinding) {
  const double denial_rates[] = {0.3, 1.0};
  for (const double denial : denial_rates) {
    core::StackConfig config = audited_stack();
    config.faults = node::FaultConfig{
        .denial_rate = denial, .revoke_rate = 0.3, .delay_rate = 0.3};
    core::SimStack cluster(config);
    StackAudit audit(cluster);
    core::MccioDriver driver;
    mcio::testing::round_trip(cluster, driver, cluster.total_ranks(),
                              ior_factory);
    EXPECT_TRUE(audit.auditor().clean())
        << "denial=" << denial << "\n"
        << audit.auditor().report();
  }
}

TEST(CheckMacros, OperandsEvaluateExactlyOnce) {
  int calls = 0;
  auto next = [&calls] { return ++calls; };
  MCIO_CHECK_EQ(next(), 1);
  EXPECT_EQ(calls, 1);  // evaluated once on the passing path

  calls = 0;
  try {
    MCIO_CHECK_EQ(next(), 999);
    FAIL() << "check should have thrown";
  } catch (const util::Error& e) {
    // The message reports the value from the single evaluation.
    EXPECT_NE(std::string(e.what()).find("lhs=1"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(calls, 1);  // not re-evaluated for the failure message
}

}  // namespace
}  // namespace mcio
