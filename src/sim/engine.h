// The deterministic virtual-time scheduler.
//
// Every actor (MPI rank) is a fiber with its own virtual clock. An actor
// yields only before it touches a shared resource: through sync_local()
// before a message pass charges its node's NIC, membus or shm queue, and
// through sync() before it touches machine-wide state such as the PFS or
// the memory managers. It resumes only when its slice is the lowest event
// left. One loop on one thread pops events from one heap, so every
// resource access executes in a single deterministic total order: the
// simulation is causal and bit-for-bit reproducible. Work that depends on
// no host order (local computation, posting or completing a receive in
// the machine's match table) runs inside the slice without yielding.
//
// Events. Every event is a fiber slice, plain data keyed (t, kind, id)
// (Key, below), with no closure and no heap allocation. There are two
// kinds:
//   - local slices (kind 1): resumptions enqueued by sync_local() and by
//     unpark() wakeups, keyed (clock, actor id);
//   - global slices (kind 2): resumptions enqueued by sync() and each
//     actor's first slice at spawn, keyed (clock, actor id).
// The kinds select no different machinery; they fix the order of slices
// at equal virtual time: message-path slices (sync_local) run before
// slices that touch machine-wide state (sync). An actor has at most one
// slice in the heap, so the heap never holds more events than there are
// actors. Every slice is pushed and popped: heap_pops() counts the slices
// run. Messages are not events: the machine matches each one when it
// is sent and wakes a parked receiver at the arrival time through
// unpark(), whose wake time the engine clamps to the executing slice's
// time, so virtual time never runs backwards in the pop order. The
// committed figures are computed under exactly this interleaving.
//
// The heap stores each Key packed into one unsigned 128-bit integer
// (Engine::pack): the IEEE-754 bits of t, then kind, then id. A clock is
// never negative, and the bits of non-negative doubles order as their
// values, so one integer compare orders the heap exactly as Key's
// operator<=> would; pack() rejects a negative, -0.0 or NaN time.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "sim/fiber.h"
#include "sim/time.h"
#include "verify/observer.h"

namespace mcio::sim {

class Engine;

/// Per-fiber handle passed to actor bodies. Valid only while the engine is
/// running the owning fiber.
class Actor {
 public:
  int id() const { return id_; }
  SimTime now() const { return clock_; }

  /// Local computation: advances this actor's clock without yielding.
  void advance(SimTime dt);

  /// Moves the clock to at least `t`.
  void advance_to(SimTime t);

  /// Global-class yield: resumes as a kind-2 slice. Call before
  /// interacting with machine-wide state (PFS, memory managers, the
  /// degradation ladder, fabric borrow).
  void sync();

  /// Local-class yield: resumes as a kind-1 slice, ahead of global slices
  /// at the same time. Call before a message pass charges the node's
  /// NIC/membus/shm queues.
  void sync_local();

  /// Blocks until another actor calls Engine::unpark() on this id. The
  /// clock after waking is max(clock at park, wake time).
  void park();

  Engine& engine() const { return *engine_; }

 private:
  friend class Engine;
  Actor(Engine* engine, int id) : engine_(engine), id_(id) {}

  Engine* engine_;
  int id_;
  SimTime clock_ = 0.0;
};

/// Usable bytes of every actor's fiber stack (one guard page sits below).
inline constexpr std::size_t kFiberStackBytes = 256 * 1024;

/// Owns the fibers and the event heap; runs the simulation to completion.
class Engine {
 public:
  /// Slice ordering key; see the file comment. kind: 1 = local slice,
  /// 2 = global slice.
  struct Key {
    SimTime t = 0.0;
    int kind = 0;
    int id = -1;
    friend auto operator<=>(const Key&, const Key&) = default;
  };
  static_assert(sizeof(Key) <= 16, "events stay small plain data");

  /// A Key as the heap stores it: t's IEEE bits in the high 64 bits, then
  /// kind, then id, so integer order is Key order.
  __extension__ typedef unsigned __int128 PackedKey;
  /// Packs `key` (kind and id are never negative); a negative, -0.0 or
  /// NaN time is a CHECK failure, since its bits would not order as its
  /// value.
  static PackedKey pack(const Key& key);
  static Key unpack(PackedKey packed);

  Engine();
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Registers an actor; returns its id (dense, starting at 0). Must be
  /// called before run().
  int spawn(std::function<void(Actor&)> body);

  /// Runs all actors to completion. Throws util::Error on deadlock and
  /// re-throws the first exception escaping an actor body.
  void run();

  /// Wakes a parked actor as a local slice; its clock becomes
  /// max(current, wake time, the executing slice's time — a wakeup can
  /// never rewind the pop order). Unparking an actor that is not parked
  /// is a CHECK failure: a waker only wakes an actor blocked on it.
  void unpark(int actor_id, SimTime not_before);

  std::size_t num_actors() const { return actors_.size(); }

  /// Events popped from the heap so far: every slice run is one pop.
  std::uint64_t heap_pops() const { return heap_pops_; }
  /// Most events the heap held at once; at most num_actors().
  std::size_t heap_high_water() const { return heap_high_water_; }

  /// Virtual time at which each actor finished (valid after run()).
  const std::vector<SimTime>& finish_times() const { return finish_times_; }

  /// Max over finish_times().
  SimTime makespan() const;

  /// The verification observer notified of scheduling events (never
  /// null; defaults to verify::global_observer() or a no-op). Observers
  /// are passive — attaching one cannot change simulated results.
  void set_observer(verify::Observer* observer);
  verify::Observer* observer() const { return observer_; }

 private:
  friend class Actor;

  enum class State { kRunnable, kParked, kDone };

  struct ActorSlot {
    std::unique_ptr<Actor> actor;
    std::unique_ptr<Fiber> fiber;
    State state = State::kRunnable;
  };

  void yield_from(int id);  // fiber -> scheduler
  /// Ends the running slice of `id`: pushes its next one of `kind` at its
  /// clock and yields to the scheduler.
  void yield_slice(int id, int kind);
  /// Makes `id` runnable and pushes its next slice, keyed `key`.
  void enqueue_slice(int id, PackedKey key);
  void body_wrapper(int id, const std::function<void(Actor&)>& body);
  /// Executes one popped slice.
  void run_slice(const Key& key);
  void check_no_deadlock();

  std::vector<ActorSlot> actors_;
  std::vector<std::function<void(Actor&)>> pending_bodies_;
  std::priority_queue<PackedKey, std::vector<PackedKey>, std::greater<>>
      heap_;
  FiberContext main_ctx_{};
  /// The executing slice's time, for clamping unpark() wake times; 0
  /// outside any slice.
  SimTime slice_t_ = 0.0;
  std::uint64_t heap_pops_ = 0;
  std::size_t heap_high_water_ = 0;
  verify::Observer* observer_;
  std::exception_ptr error_;
  std::vector<SimTime> finish_times_;
  bool running_ = false;
};

}  // namespace mcio::sim
