// Simulation kernel: virtual-time scheduling order (including the
// equal-time order of local and global slices and the packed heap key),
// park/unpark and the wake-time clamp, the heap bound, determinism,
// misuse and deadlock diagnosis, observer notifications, the fiber guard
// page and bandwidth-queue behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "sim/engine.h"
#include "sim/resource.h"
#include "sim/topology.h"
#include "util/check.h"

namespace mcio::sim {
namespace {

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

TEST(Engine, EqualTimeOrderIsLocalThenGlobal) {
  // Every slice below runs at virtual time 1.0, and actor ids run
  // against the kind order, so only the key's kind field can produce the
  // expected interleaving: a sync_local() slice runs before any sync()
  // slice, and a slice's same-time re-enqueue keeps its key, so it runs
  // before a higher id's slice of the same kind and time.
  Engine engine;
  std::vector<std::string> log;
  engine.spawn([&log](Actor& a) {
    a.advance(1.0);
    a.sync();
    log.push_back("global0");
    a.sync();
    log.push_back("global0 again");
  });
  engine.spawn([&log](Actor& a) {
    a.advance(1.0);
    a.sync_local();
    log.push_back("local1");
    a.sync_local();
    log.push_back("local1 again");
  });
  engine.spawn([&log](Actor& a) {
    a.advance(1.0);
    a.sync_local();
    log.push_back("local2");
  });
  engine.spawn([&log](Actor& a) {
    a.advance(1.0);
    a.sync();
    log.push_back("global3");
  });
  engine.run();
  const std::vector<std::string> expected = {
      "local1",  "local1 again",  "local2",
      "global0", "global0 again", "global3"};
  EXPECT_EQ(log, expected);
}

TEST(Engine, UnparkOfRunnableActorRejected) {
  // A waker only wakes an actor parked on it; waking one that is still
  // runnable is a bug in the waker.
  Engine engine;
  const int runnable = engine.spawn([](Actor& a) {
    a.advance(2.0);
    a.sync();
  });
  engine.spawn([runnable](Actor& a) {
    a.advance(1.0);
    a.sync();
    a.engine().unpark(runnable, a.now());
  });
  EXPECT_THROW(engine.run(), util::Error);
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
  // The message path: a send that unparks its receiver wakes it at the
  // arrival time, not at the (earlier) time of the sending slice.
  Engine engine;
  SimTime woke_at = -1.0;
  const int sleeper = engine.spawn([&woke_at](Actor& a) {
    a.park();  // mcio-analyze: allow(unobserved-park) -- scheduler's own test
    woke_at = a.now();
  });
  engine.spawn([sleeper](Actor& a) {
    a.sync_local();
    a.engine().unpark(sleeper, 2.5);
  });
  engine.run();
  EXPECT_DOUBLE_EQ(woke_at, 2.5);
  EXPECT_DOUBLE_EQ(engine.finish_times()[1], 0.0);
}

TEST(Engine, UnparkResumesAsLocalSlice) {
  // A wakeup is a local slice at the wake time, keyed (t, 1, id): the
  // woken actor runs before a lower id's global slice at that time, and
  // after its local one.
  Engine engine;
  std::vector<std::string> log;
  engine.spawn([&log](Actor& a) {
    a.advance(2.0);
    a.sync();
    log.push_back("global0");
  });
  engine.spawn([&log](Actor& a) {
    a.advance(2.0);
    a.sync_local();
    log.push_back("local1");
  });
  const int sleeper = engine.spawn([&log](Actor& a) {
    a.park();  // mcio-analyze: allow(unobserved-park) -- scheduler's own test
    log.push_back("woken2");
  });
  engine.spawn([sleeper](Actor& a) {
    a.sync_local();
    a.engine().unpark(sleeper, 2.0);
  });
  engine.run();
  const std::vector<std::string> expected = {"local1", "woken2", "global0"};
  EXPECT_EQ(log, expected);
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

TEST(Engine, EverySliceIsAHeapPop) {
  // With nothing else pending, each sync_local() and sync() still pushes
  // its slice and yields: the heap pops every slice, the first included,
  // and the observer sees each one resume.
  constexpr int kSyncs = 6;
  Engine engine;
  RecordingObserver observer;
  engine.set_observer(&observer);
  engine.spawn([](Actor& a) {
    for (int i = 0; i < kSyncs; ++i) {
      a.advance(1.0);
      if (i % 2 == 0) {
        a.sync_local();
      } else {
        a.sync();
      }
    }
  });
  engine.run();
  EXPECT_EQ(engine.heap_pops(), std::uint64_t{kSyncs + 1});
  const auto resumed = std::count_if(
      observer.events.begin(), observer.events.end(),
      [](const auto& e) { return std::get<0>(e) == 'r'; });
  EXPECT_EQ(resumed, kSyncs + 1);
}

// Each case pins that slices run in the heap's key order (clock, kind,
// id) across actors.

TEST(Engine, SlicesPopInKeyOrder) {
  // A pending slice at a lower key runs before the syncing actor's next
  // slice; a later one runs after it.
  Engine engine;
  std::vector<std::string> log;
  engine.spawn([&log](Actor& a) {
    a.advance(1.0);
    a.sync_local();  // actor 1's slice at 0 is pending: runs first
    log.push_back("0 at 1");
    a.advance(1.0);
    a.sync_local();  // actor 1's slice at 3 is later: runs after
    log.push_back("0 at 2");
  });
  engine.spawn([&log](Actor& a) {
    log.push_back("1 at 0");
    a.advance(3.0);
    a.sync_local();
    log.push_back("1 at 3");
  });
  engine.run();
  const std::vector<std::string> expected = {"1 at 0", "0 at 1", "0 at 2",
                                             "1 at 3"};
  EXPECT_EQ(log, expected);
  // Both first slices, actor 0's slices at 1 and 2 and actor 1's at 3.
  EXPECT_EQ(engine.heap_pops(), 5u);
}

TEST(Engine, EqualClockLowerIdRunsFirst) {
  // Equal time and kind: the lower actor id runs first, so actor 1 must
  // not run ahead of actor 0's pending slice.
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
}

TEST(Engine, GlobalSliceRunsAfterLocalSlicesAtSameClock) {
  // Actor 1's kind-1 slice at t = 1 is pending when actor 0 (the lower
  // id) calls sync() at t = 1: kind 2 orders after kind 1, so actor 0
  // waits. Actor 1's next kind-1 slice at t = 1 runs before it too.
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
}

TEST(Engine, UnparkClampIsTheExecutingSlicesKey) {
  // unpark() clamps a wake time to the executing slice's key time, which
  // stays put while local computation moves the waker's clock, then
  // follows the next slice.
  Engine engine;
  std::vector<SimTime> woke(4, -1.0);
  for (int i = 0; i < 4; ++i) {
    engine.spawn([i, &woke](Actor& a) {
      a.park();  // mcio-analyze: allow(unobserved-park) -- scheduler's own test
      woke[static_cast<std::size_t>(i)] = a.now();
    });
  }
  engine.spawn([](Actor& a) {
    a.advance(1.0);
    a.engine().unpark(0, 0.0);  // first slice, popped at 0
    a.sync_local();  // actor 0's wakeup at 0 is pending: yields
    a.advance(1.0);
    a.engine().unpark(1, 0.0);  // popped at 1
    a.sync_local();  // actor 1's wakeup at 1 is pending: yields
    a.advance(1.0);
    a.sync_local();  // the heap is empty: the next slice is at 3
    a.advance(1.0);
    a.engine().unpark(2, 0.0);
    a.engine().unpark(3, 3.5);  // a wake time past the slice's stands
  });
  engine.run();
  EXPECT_EQ(woke, (std::vector<SimTime>{0.0, 1.0, 3.0, 3.5}));
}

TEST(Engine, PackedKeyOrdersAsKey) {
  // The heap's packed key orders exactly as Key over the times a clock
  // can hold: equal times, equal kinds, 0.0, subnormals and large t.
  const std::vector<SimTime> times = {
      0.0,
      std::numeric_limits<SimTime>::denorm_min(),
      2 * std::numeric_limits<SimTime>::denorm_min(),
      std::numeric_limits<SimTime>::min() / 2,
      std::numeric_limits<SimTime>::min(),
      1e-9,
      1.0,
      std::nextafter(1.0, 2.0),
      3.25,
      1e300,
      std::numeric_limits<SimTime>::max(),
      std::numeric_limits<SimTime>::infinity()};
  std::mt19937_64 rng(20261019);
  const auto draw = [&] {
    const std::size_t i = rng() % (times.size() + 1);
    // One draw in times.size() + 1 is an arbitrary finite time.
    const SimTime t = i < times.size()
                          ? times[i]
                          : std::ldexp(static_cast<double>(rng() >> 11),
                                       static_cast<int>(rng() % 200) - 150);
    return Engine::Key{t, static_cast<int>(1 + rng() % 2),
                       static_cast<int>(rng() % 4 == 0
                                            ? std::numeric_limits<int>::max()
                                            : rng() % 3)};
  };
  for (int n = 0; n < 20000; ++n) {
    const Engine::Key a = draw();
    const Engine::Key b = draw();
    const Engine::PackedKey pa = Engine::pack(a);
    const Engine::PackedKey pb = Engine::pack(b);
    ASSERT_EQ(pa < pb, a < b) << a.t << ' ' << b.t;
    ASSERT_EQ(pa == pb, a == b) << a.t << ' ' << b.t;
    const Engine::Key back = Engine::unpack(pa);
    ASSERT_EQ(back, a);
  }
}

TEST(Engine, NegativeOrMinusZeroClockRejected) {
  // A set sign bit would order -0.0 and negative times after every
  // positive one: packing such a key is a CHECK failure.
  for (const SimTime t : {-0.0, -std::numeric_limits<SimTime>::denorm_min(),
                          -1.0, std::numeric_limits<SimTime>::quiet_NaN()}) {
    EXPECT_THROW(Engine::pack(Engine::Key{t, 1, 0}), util::Error) << t;
  }
  EXPECT_NO_THROW(Engine::pack(Engine::Key{0.0, 1, 0}));
}

TEST(Engine, HeapHoldsAtMostOneSlicePerActor) {
  // Each actor has at most one pending slice, whatever it does: the heap
  // starts at one first slice per actor and never grows past it.
  Engine engine;
  constexpr int kActors = 6;
  for (int i = 0; i < kActors; ++i) {
    engine.spawn([i](Actor& a) {
      for (int k = 0; k < 30; ++k) {
        a.advance(0.001 * ((i * 5 + k) % 7 + 1));
        if (k % 3 == 0) {
          a.sync();
        } else {
          a.sync_local();
        }
      }
    });
  }
  engine.run();
  EXPECT_EQ(engine.heap_high_water(), std::size_t{kActors});
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
        Engine engine;
        engine.spawn([](Actor&) {
          volatile char c = 0;
          // 4 KiB frames reaching twice the stack's usable bytes.
          overflow_stack(&c, static_cast<int>(2 * kFiberStackBytes / 4096));
        });
        engine.run();
      },
      "");
}

#endif  // sanitizers

TEST(BandwidthQueue, ServeAndQueueing) {
  BandwidthQueue q(100.0);  // 100 B/s
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
  BandwidthQueue q(100.0, 0.25);
  EXPECT_DOUBLE_EQ(q.serve(0.0, 100.0), 1.25);
  // bw_scale halves the effective bandwidth; extra latency adds on top.
  EXPECT_DOUBLE_EQ(q.serve(10.0, 100.0, 0.5, 0.5), 10.0 + 0.25 + 0.5 + 2.0);
  EXPECT_THROW(q.serve(0.0, 10.0, 0.0), util::Error);
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
