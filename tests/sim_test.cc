// Simulation kernel: virtual-time scheduling order (including the
// equal-time order of deliveries, local and global slices), park/unpark
// and wakeup tokens, the order of timed deliveries, determinism,
// misuse and deadlock diagnosis, observer notifications, the fiber guard
// page and bandwidth-queue behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "sim/engine.h"
#include "sim/resource.h"
#include "sim/topology.h"
#include "util/check.h"

namespace mcio::sim {
namespace {

/// The engine's timed sink for these tests: each posted closure is kept,
/// and its index is the timed event's token.
class ClosureSink {
 public:
  explicit ClosureSink(Engine& engine) : engine_(engine) {
    engine.set_timed_sink(&ClosureSink::apply, this);
  }
  ClosureSink(const ClosureSink&) = delete;
  ClosureSink& operator=(const ClosureSink&) = delete;

  void post_at(SimTime t, std::function<void()> fn) {
    const auto token = static_cast<std::uint32_t>(fns_.size());
    fns_.push_back(std::move(fn));
    engine_.post_at(t, token);
  }

 private:
  static void apply(void* self, std::uint32_t token) {
    static_cast<ClosureSink*>(self)->fns_[token]();
  }

  Engine& engine_;
  std::deque<std::function<void()>> fns_;  // stable while one runs
};

TEST(Engine, RunsActorsToCompletion) {
  Engine engine;
  std::vector<int> done;
  for (int i = 0; i < 5; ++i) {
    engine.spawn([i, &done](Actor& a) {
      a.advance(0.1 * (5 - i));
      done.push_back(i);
    });
  }
  engine.run();
  EXPECT_EQ(done.size(), 5u);
  EXPECT_EQ(engine.finish_times().size(), 5u);
  EXPECT_NEAR(engine.makespan(), 0.5, 1e-12);
}

TEST(Engine, SyncOrdersByVirtualTime) {
  // Actors advance different amounts, then sync; the order in which they
  // pass the sync point must follow virtual clocks, not spawn order.
  Engine engine;
  std::vector<int> order;
  const double delays[] = {0.3, 0.1, 0.2};
  for (int i = 0; i < 3; ++i) {
    engine.spawn([i, &delays, &order](Actor& a) {
      a.advance(delays[i]);
      a.sync();
      order.push_back(i);
    });
  }
  engine.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(order[2], 0);
}

TEST(Engine, ParkAndUnparkTransfersControl) {
  Engine engine;
  bool woke = false;
  const int sleeper = engine.spawn([&](Actor& a) {
    a.park();  // mcio-analyze: allow(unobserved-park) -- scheduler's own test
    woke = true;
    EXPECT_GE(a.now(), 2.5);
  });
  engine.spawn([&, sleeper](Actor& a) {
    a.advance(2.5);
    a.sync();
    EXPECT_TRUE(a.engine().is_parked(sleeper));
    a.engine().unpark(sleeper, a.now());
  });
  engine.run();
  EXPECT_TRUE(woke);
}

TEST(Engine, DeadlockDetected) {
  Engine engine;
  engine.spawn(
      // mcio-analyze: allow(unobserved-park) -- deliberate deadlock test
      [](Actor& a) { a.park(); });
  EXPECT_THROW(engine.run(), util::Error);
}

TEST(Engine, ActorExceptionPropagates) {
  Engine engine;
  engine.spawn([](Actor&) { throw util::Error("boom"); });
  EXPECT_THROW(engine.run(), util::Error);
}

TEST(Engine, DeterministicFinishTimes) {
  auto run_once = [] {
    Engine engine;
    for (int i = 0; i < 8; ++i) {
      engine.spawn([i](Actor& a) {
        for (int k = 0; k < 10; ++k) {
          a.advance(0.01 * ((i + k) % 3 + 1));
          a.sync();
        }
      });
    }
    engine.run();
    return engine.finish_times();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, AdvanceToNeverMovesBackwards) {
  Engine engine;
  engine.spawn([](Actor& a) {
    a.advance(1.0);
    a.advance_to(0.5);
    EXPECT_DOUBLE_EQ(a.now(), 1.0);
    a.advance_to(2.0);
    EXPECT_DOUBLE_EQ(a.now(), 2.0);
  });
  engine.run();
}

TEST(Engine, EqualTimeOrderIsDeliveryThenLocalThenGlobal) {
  // Every event below fires at virtual time 1.0, and actor ids run
  // against the kind order, so only the key's kind field can produce the
  // expected interleaving: a post_at() delivery applies before any
  // sync_local() slice, which runs before any sync() slice; a slice's
  // same-time re-enqueue runs after the slice itself and after the
  // delivery that slice posted.
  Engine engine;
  ClosureSink sink(engine);
  std::vector<std::string> log;
  engine.spawn([&log](Actor& a) {
    a.advance(1.0);
    a.sync();
    log.push_back("global0");
    a.sync();
    log.push_back("global0 again");
  });
  engine.spawn([&log, &sink](Actor& a) {
    a.advance(1.0);
    a.sync_local();
    log.push_back("local1");
    sink.post_at(1.0, [&log] { log.push_back("delivery from 1"); });
    a.sync_local();
    log.push_back("local1 again");
  });
  engine.spawn([&log, &sink](Actor&) {
    sink.post_at(1.0, [&log] { log.push_back("delivery from 2"); });
  });
  engine.spawn([&log](Actor& a) {
    a.advance(1.0);
    a.sync();
    log.push_back("global3");
  });
  engine.run();
  const std::vector<std::string> expected = {
      "delivery from 2", "local1",        "delivery from 1", "local1 again",
      "global0",         "global0 again", "global3"};
  EXPECT_EQ(log, expected);
}

TEST(Engine, UnparkBeforeParkConsumesToken) {
  Engine engine;
  bool woke = false;
  int sleeper = -1;
  sleeper = engine.spawn([&](Actor& a) {
    a.advance(1.0);
    a.sync();
    // The unpark below already happened (at virtual time 0): park must
    // consume its token and return without blocking.
    a.park();  // mcio-analyze: allow(unobserved-park) -- scheduler's own test
    woke = true;
    EXPECT_DOUBLE_EQ(a.now(), 1.0);  // token time 0.5 never rewinds
    // A second park has no token: it must genuinely block for the
    // late unparker.
    a.park();  // mcio-analyze: allow(unobserved-park) -- scheduler's own test
    EXPECT_DOUBLE_EQ(a.now(), 2.0);
  });
  engine.spawn([&, sleeper](Actor& a) {
    EXPECT_FALSE(a.engine().is_parked(sleeper));
    a.engine().unpark(sleeper, 0.5);  // unpark-before-park
  });
  engine.spawn([&, sleeper](Actor& a) {
    a.advance(2.0);
    a.sync();
    EXPECT_TRUE(a.engine().is_parked(sleeper));
    a.engine().unpark(sleeper, a.now());
  });
  engine.run();
  EXPECT_TRUE(woke);
}

TEST(Engine, TokenDoesNotLeakAcrossParks) {
  // A token is one wakeup: an actor that parks twice after a single
  // early unpark must deadlock on the second park.
  Engine engine;
  const int sleeper = engine.spawn([](Actor& a) {
    a.sync();
    a.park();  // mcio-analyze: allow(unobserved-park) -- consumes the token
    a.park();  // mcio-analyze: allow(unobserved-park) -- deliberate deadlock
  });
  engine.spawn([sleeper](Actor& a) {
    a.engine().unpark(sleeper, 0.0);
  });
  EXPECT_THROW(engine.run(), util::Error);
}

TEST(Engine, SameTimeDeliveriesApplyInStampOrder) {
  // Deliveries at one arrival time apply in (stamping actor, seq) order:
  // by actor id first, whatever the virtual time they were posted at,
  // then in each actor's program order, across its slices too.
  Engine engine;
  ClosureSink sink(engine);
  std::vector<std::string> log;
  engine.spawn([&log, &sink](Actor& a) {
    a.advance(1.0);
    a.sync();
    sink.post_at(2.0, [&log] { log.push_back("0 first slice"); });
    a.sync();
    sink.post_at(2.0, [&log] { log.push_back("0 second slice"); });
  });
  engine.spawn([&log, &sink](Actor&) {
    sink.post_at(2.0, [&log] { log.push_back("1a"); });
    sink.post_at(2.0, [&log] { log.push_back("1b"); });
    sink.post_at(1.5, [&log] { log.push_back("1 earlier"); });
  });
  engine.run();
  const std::vector<std::string> expected = {
      "1 earlier", "0 first slice", "0 second slice", "1a", "1b"};
  EXPECT_EQ(log, expected);
}

/// Every actor posts a delivery to every other actor on every slice, at
/// staggered arrival times strictly after the posting slice, so every
/// delivery is in the heap before its arrival time pops. Returns the
/// applied log, one entry (arrival, source, source's post counter,
/// target) per delivery.
struct FloodResult {
  std::vector<std::tuple<SimTime, int, int, int>> log;
  std::size_t posted = 0;
};

FloodResult run_flood() {
  Engine engine;
  ClosureSink sink(engine);
  FloodResult out;
  constexpr int kActors = 8;
  for (int i = 0; i < kActors; ++i) {
    engine.spawn([i, &sink, &out](Actor& a) {
      int seq = 0;
      for (int k = 0; k < 10; ++k) {
        a.advance(0.001 * ((i + k) % 4 + 1));
        a.sync_local();
        for (int target = 0; target < kActors; ++target) {
          if (target == i) continue;
          const SimTime arrival = a.now() + 0.0005 * ((i + target + k) % 3 + 1);
          ++out.posted;
          sink.post_at(arrival, [arrival, i, s = seq++, target, &out] {
            out.log.emplace_back(arrival, i, s, target);
          });
        }
      }
    });
  }
  engine.run();
  return out;
}

TEST(Engine, PostAtFloodAppliesEveryDeliveryInKeyOrder) {
  const FloodResult first = run_flood();
  EXPECT_EQ(first.posted, 8u * 7u * 10u);
  ASSERT_EQ(first.log.size(), first.posted);  // nothing dropped
  // The apply order is exactly (arrival, source, source's seq).
  auto sorted = first.log;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(first.log, sorted);
  EXPECT_EQ(run_flood().log, first.log);
}

/// A sync-heavy mixed workload: staggered advances, syncs and a
/// park/unpark pair, exercising every scheduler transition.
std::vector<SimTime> run_mixed_workload() {
  Engine engine;
  constexpr int kActors = 12;
  int parker = -1;
  for (int i = 0; i < kActors; ++i) {
    const int id = engine.spawn([i, &parker](Actor& a) {
      for (int k = 0; k < 20; ++k) {
        a.advance(0.001 * ((i * 7 + k) % 5 + 1));
        if (k % 2 == 0) {
          a.sync();
        } else {
          a.sync_local();
        }
      }
      if (i == 0) {
        a.park();  // mcio-analyze: allow(unobserved-park) -- scheduler's own test
      } else if (i == 1) {
        a.advance(1.0);
        a.sync();
        EXPECT_TRUE(a.engine().is_parked(parker));
        a.engine().unpark(parker, a.now());
      }
    });
    if (i == 0) parker = id;
  }
  engine.run();
  return engine.finish_times();
}

TEST(Engine, MixedWorkloadReproducible) {
  const std::vector<SimTime> first = run_mixed_workload();
  ASSERT_EQ(first.size(), 12u);
  // The parked actor wakes at exactly its waker's time.
  EXPECT_DOUBLE_EQ(first[0], first[1]);
  EXPECT_GT(first[1], 1.0);
  EXPECT_EQ(run_mixed_workload(), first);
}

TEST(Engine, UnparkWakeTimeClampedToWakerSlice) {
  // A wake time behind the waking slice is raised to the slice's time:
  // a wakeup never rewinds the pop order.
  Engine engine;
  SimTime woke_at = -1.0;
  const int sleeper = engine.spawn([&woke_at](Actor& a) {
    a.park();  // mcio-analyze: allow(unobserved-park) -- scheduler's own test
    woke_at = a.now();
  });
  engine.spawn([sleeper](Actor& a) {
    a.advance(3.0);
    a.sync();
    a.engine().unpark(sleeper, 1.0);
  });
  engine.run();
  EXPECT_DOUBLE_EQ(woke_at, 3.0);
  EXPECT_DOUBLE_EQ(engine.makespan(), 3.0);
}

TEST(Engine, DeliveryUnparkWakesAtArrivalTime) {
  // The message path: a delivery that unparks its receiver wakes it at
  // the arrival time, not at the (earlier) time the sender posted it.
  Engine engine;
  ClosureSink sink(engine);
  SimTime woke_at = -1.0;
  const int sleeper = engine.spawn([&woke_at](Actor& a) {
    a.park();  // mcio-analyze: allow(unobserved-park) -- scheduler's own test
    woke_at = a.now();
  });
  engine.spawn([sleeper, &engine, &sink](Actor&) {
    sink.post_at(2.5, [sleeper, &engine] {
      EXPECT_TRUE(engine.is_parked(sleeper));
      engine.unpark(sleeper, 0.0);
    });
  });
  engine.run();
  EXPECT_DOUBLE_EQ(woke_at, 2.5);
  EXPECT_DOUBLE_EQ(engine.finish_times()[1], 0.0);
}

TEST(Engine, PostAtBehindSliceTimeRejected) {
  Engine engine;
  ClosureSink sink(engine);
  engine.spawn([&sink](Actor& a) {
    a.advance(1.0);
    a.sync();
    sink.post_at(0.5, [] {});
  });
  EXPECT_THROW(engine.run(), util::Error);
}

TEST(Engine, PostAtOutsideSliceRejected) {
  // Before run() there is no slice to stamp the event.
  Engine before;
  ClosureSink before_sink(before);
  before.spawn([](Actor&) {});
  EXPECT_THROW(before_sink.post_at(1.0, [] {}), util::Error);
  // A timed event never emits further events.
  Engine nested;
  ClosureSink nested_sink(nested);
  nested.spawn([&nested_sink](Actor&) {
    nested_sink.post_at(1.0,
                        [&nested_sink] { nested_sink.post_at(2.0, [] {}); });
  });
  EXPECT_THROW(nested.run(), util::Error);
}

TEST(Engine, UnparkOfFinishedActorRejected) {
  Engine engine;
  const int early = engine.spawn([](Actor&) {});
  engine.spawn([early](Actor& a) {
    a.advance(1.0);
    a.sync();
    a.engine().unpark(early, a.now());
  });
  EXPECT_THROW(engine.run(), util::Error);
}

TEST(Engine, DeadlockDiagnosisListsParkedActors) {
  Engine engine;
  engine.spawn([](Actor& a) { a.advance(1.0); });
  for (int i = 0; i < 2; ++i) {
    // mcio-analyze: allow(unobserved-park) -- deliberate deadlock test
    engine.spawn([](Actor& a) { a.park(); });
  }
  try {
    engine.run();
    FAIL() << "deadlock not detected";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("parked actors: 1 2"),
              std::string::npos)
        << e.what();
  }
}

/// Records every scheduling notification the engine sends.
class RecordingObserver : public verify::Observer {
 public:
  void on_engine_start(int num_actors) override { started = num_actors; }
  void on_actor_resumed(int actor, double clock) override {
    events.emplace_back('r', actor, clock);
  }
  void on_actor_yielded(int actor, double clock) override {
    events.emplace_back('y', actor, clock);
  }

  int started = -1;
  std::vector<std::tuple<char, int, double>> events;
};

TEST(Engine, ObserverSeesEverySliceAsResumeYieldPair) {
  Engine engine;
  RecordingObserver observer;
  engine.set_observer(&observer);
  engine.spawn([](Actor& a) {
    a.advance(2.0);
    a.sync();
  });
  engine.spawn([](Actor& a) {
    a.advance(1.0);
    a.sync_local();
    a.advance(0.5);
  });
  engine.run();
  EXPECT_EQ(observer.started, 2);
  using E = std::tuple<char, int, double>;
  const std::vector<E> expected = {
      E{'r', 0, 0.0}, E{'y', 0, 2.0}, E{'r', 1, 0.0}, E{'y', 1, 1.0},
      E{'r', 1, 1.0}, E{'y', 1, 1.5}, E{'r', 0, 2.0}, E{'y', 0, 2.0}};
  EXPECT_EQ(observer.events, expected);
}

// In-place continuation: a sync()/sync_local() whose next slice would be
// the heap's next pop continues without leaving the fiber. Each case pins
// that the pop order is exactly the heap's.

TEST(Engine, InPlaceContinuationYieldsToSameTimeDelivery) {
  // A delivery posted at the slice's own time (kind 0) orders before the
  // actor's kind-1 continuation, so the actor must yield to it; a later
  // delivery does not stop the continuation.
  Engine engine;
  ClosureSink sink(engine);
  std::vector<std::string> log;
  engine.spawn([&log, &sink](Actor& a) {
    a.advance(1.0);
    sink.post_at(1.0, [&log] { log.push_back("delivery at 1"); });
    sink.post_at(3.0, [&log] { log.push_back("delivery at 3"); });
    a.sync_local();
    log.push_back("slice at 1");
    a.advance(1.0);
    a.sync_local();
    log.push_back("slice at 2");
  });
  engine.run();
  const std::vector<std::string> expected = {"delivery at 1", "slice at 1",
                                             "slice at 2", "delivery at 3"};
  EXPECT_EQ(log, expected);
  EXPECT_EQ(engine.in_place_slices(), 1u);  // only the slice at 2
  // The first slice, the slice at 1 and both deliveries were popped.
  EXPECT_EQ(engine.heap_pops(), 4u);
}

TEST(Engine, InPlaceContinuationYieldsToLowerIdAtSameClock) {
  // Equal time and kind: the lower actor id runs first, so actor 1 must
  // not continue ahead of actor 0's pending slice.
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 2; ++i) {
    engine.spawn([i, &order](Actor& a) {
      a.advance(1.0);
      a.sync_local();
      order.push_back(i);
    });
  }
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(engine.in_place_slices(), 0u);
}

TEST(Engine, GlobalSyncNeverContinuesAheadOfLocalSlice) {
  // Actor 1's kind-1 slice at t = 1 is pending when actor 0 (the lower
  // id) calls sync() at t = 1: kind 2 orders after kind 1, so actor 0
  // yields. Actor 1, alone at the front, then continues in place.
  Engine engine;
  std::vector<std::string> log;
  engine.spawn([&log](Actor& a) {
    a.advance(0.5);
    a.sync();
    a.advance(0.5);
    a.sync();
    log.push_back("global0");
  });
  engine.spawn([&log](Actor& a) {
    a.advance(1.0);
    a.sync_local();
    log.push_back("local1");
    a.sync_local();
    log.push_back("local1 again");
  });
  engine.run();
  const std::vector<std::string> expected = {"local1", "local1 again",
                                             "global0"};
  EXPECT_EQ(log, expected);
  EXPECT_EQ(engine.in_place_slices(), 1u);
}

TEST(Engine, PostAtAfterInPlaceContinuationChecksContinuedTime) {
  // The continued slice runs at the actor's new clock: posting behind it
  // is rejected exactly as after a popped slice, and posting at it works.
  for (const SimTime t : {1.5, 2.0}) {
    Engine engine;
    ClosureSink sink(engine);
    bool applied = false;
    engine.spawn([t, &sink, &applied](Actor& a) {
      a.advance(2.0);
      a.sync_local();  // the heap is empty: continues in place
      sink.post_at(t, [&applied] { applied = true; });
    });
    if (t < 2.0) {
      EXPECT_THROW(engine.run(), util::Error);
    } else {
      engine.run();
      EXPECT_TRUE(applied);
    }
    EXPECT_EQ(engine.in_place_slices(), 1u);
  }
}

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define MCIO_TEST_UNDER_SANITIZER 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MCIO_TEST_UNDER_SANITIZER 1
#endif

#if !defined(MCIO_TEST_UNDER_SANITIZER)

/// Touches stack pages downward past the fiber's usable bytes.
void overflow_stack(volatile char* p, int depth) {
  volatile char frame[4096];
  frame[0] = static_cast<char>(depth);
  if (depth > 0) overflow_stack(frame, depth - 1);
  *p = frame[0];
}

TEST(FiberGuardPageDeathTest, OverflowHitsGuardNotHeap) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Engine::Options opt;
        opt.stack_bytes = 16 * 1024;  // the minimum FiberStack allows
        Engine engine(opt);
        engine.spawn([](Actor&) {
          volatile char c = 0;
          overflow_stack(&c, 64);  // 64 * 4 KiB frames >> 16 KiB stack
        });
        engine.run();
      },
      "");
}

#endif  // sanitizers

TEST(BandwidthQueue, ServeAndQueueing) {
  BandwidthQueue q("test", 100.0);  // 100 B/s
  const SimTime t1 = q.serve(0.0, 50.0);
  EXPECT_DOUBLE_EQ(t1, 0.5);
  // Second request queues behind the first even if it "starts" earlier.
  const SimTime t2 = q.serve(0.1, 100.0);
  EXPECT_DOUBLE_EQ(t2, 1.5);
  // A request after idle time starts immediately.
  const SimTime t3 = q.serve(10.0, 100.0);
  EXPECT_DOUBLE_EQ(t3, 11.0);
  EXPECT_EQ(q.total_requests(), 3u);
  EXPECT_DOUBLE_EQ(q.total_bytes(), 250.0);
}

TEST(BandwidthQueue, LatencyAndScale) {
  BandwidthQueue q("test", 100.0, 0.25);
  EXPECT_DOUBLE_EQ(q.serve(0.0, 100.0), 1.25);
  // bw_scale halves the effective bandwidth; extra latency adds on top.
  EXPECT_DOUBLE_EQ(q.serve(10.0, 100.0, 0.5, 0.5), 10.0 + 0.25 + 0.5 + 2.0);
  EXPECT_THROW(q.serve(0.0, 10.0, 0.0), util::Error);
}

TEST(BandwidthQueue, Utilization) {
  BandwidthQueue q("test", 100.0);
  q.serve(0.0, 100.0);
  EXPECT_NEAR(q.utilization(2.0), 0.5, 1e-12);
  // Oversubscription beyond the horizon is reported raw, not clamped;
  // only the presentation helper caps at 1.0.
  EXPECT_NEAR(q.utilization(0.5), 2.0, 1e-12);
  EXPECT_NEAR(q.utilization_clamped(0.5), 1.0, 1e-12);
  EXPECT_NEAR(q.utilization_clamped(2.0), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(q.utilization(0.0), 0.0);
  q.reset_accounting();
  EXPECT_DOUBLE_EQ(q.busy_time(), 0.0);
}

TEST(Cluster, TopologyMapping) {
  ClusterConfig cfg;
  cfg.num_nodes = 3;
  cfg.ranks_per_node = 4;
  Cluster cluster(cfg);
  EXPECT_EQ(cluster.total_ranks(), 12);
  EXPECT_EQ(cluster.node_of_rank(0), 0);
  EXPECT_EQ(cluster.node_of_rank(3), 0);
  EXPECT_EQ(cluster.node_of_rank(4), 1);
  EXPECT_EQ(cluster.node_of_rank(11), 2);
  EXPECT_THROW(cluster.node_of_rank(12), util::Error);
  EXPECT_EQ(cluster.first_rank_on_node(2), 8);
  EXPECT_EQ(cluster.ranks_on_node(1),
            (std::vector<int>{4, 5, 6, 7}));
}

TEST(Cluster, DistinctResourcesPerNode) {
  ClusterConfig cfg;
  cfg.num_nodes = 2;
  Cluster cluster(cfg);
  cluster.nic_out(0).serve(0.0, 1e6);
  EXPECT_GT(cluster.nic_out(0).next_free(), 0.0);
  EXPECT_DOUBLE_EQ(cluster.nic_out(1).next_free(), 0.0);
  EXPECT_DOUBLE_EQ(cluster.membus(0).next_free(), 0.0);
}

}  // namespace
}  // namespace mcio::sim
