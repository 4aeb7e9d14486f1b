// The deterministic virtual-time scheduler.
//
// Every actor (MPI rank) is a fiber with its own virtual clock. Whenever
// an actor is about to *interact* with shared simulation state it yields
// through sync() or sync_local() and resumes only when its slice is the
// lowest event left. One loop on one thread pops events from one heap,
// so every interaction executes in a single deterministic total order:
// the simulation is causal and bit-for-bit reproducible.
//
// Events. An event is plain data, {key, actor, token}: no closure and no
// heap allocation. The heap holds three kinds, ordered by the key
// (t, kind, a, b) (Key, below):
//   - timed events (kind 0): message deliveries applied at their arrival
//     time, keyed (arrival, stamping actor, seq). A timed event carries
//     an opaque 32-bit token that the engine hands to the one timed sink
//     its owner registered (set_timed_sink); the machine's token indexes
//     its pooled envelope slab;
//   - local slices (kind 1): fiber resumptions enqueued by sync_local()
//     and park wakeups, keyed (clock, actor id);
//   - global slices (kind 2): fiber resumptions enqueued by sync() and
//     each actor's first slice at spawn, keyed (clock, actor id).
// The kinds select no different machinery; they exist to fix the order
// of events at equal virtual time. A delivery applies before any slice
// at its arrival time (a receiver resuming at t sees every message that
// arrived at t), and message-path slices (sync_local) run before slices
// that touch machine-wide state such as the PFS or the memory managers
// (sync). The committed figures are computed under exactly this
// interleaving. A slice's same-time re-enqueue orders after the slice
// itself, post_at() never schedules behind the posting slice's time, and
// the engine clamps unpark wake times to the executing event's time, so
// virtual time never runs backwards in the pop order.
//
// In-place continuation. When sync() or sync_local() would enqueue a
// slice whose key (clock, kind, id, -1) is strictly below the heap's
// minimum (or the heap is empty), the scheduler's next pop would be that
// very slice: nothing else runs between the push and the pop, and keys
// are unique, so the comparison the heap would make is already decided.
// The actor then continues without leaving its fiber: the observer still
// sees the slice end and the next one begin (on_actor_yielded, then
// on_actor_resumed, at the same clock), the executing event's time moves
// to the new slice, and the push, the pop and two fiber switches are
// skipped. The pop order, and so every simulated result, is unchanged.
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
  /// at the same time. Call before message-path interactions (the
  /// endpoint and the node's NIC/membus/shm queues).
  void sync_local();

  /// Blocks until another actor calls Engine::unpark() on this id. The
  /// clock after waking is max(clock at park, wake time). If an unpark
  /// arrived while this actor was still runnable (the wakeup token of
  /// DESIGN.md §12), park() consumes it and returns without blocking.
  void park();

  Engine& engine() const { return *engine_; }

 private:
  friend class Engine;
  Actor(Engine* engine, int id) : engine_(engine), id_(id) {}

  Engine* engine_;
  int id_;
  SimTime clock_ = 0.0;
};

/// Owns the fibers and the event heap; runs the simulation to completion.
class Engine {
 public:
  struct Options {
    std::size_t stack_bytes = 256 * 1024;
  };

  /// Event ordering key; see the file comment. kind: 0 = timed event
  /// (a = stamping actor, b = seq), 1 = local slice, 2 = global slice
  /// (a = actor id, b = -1).
  struct Key {
    SimTime t = 0.0;
    int kind = 0;
    int a = -1;
    std::int64_t b = -1;
    friend auto operator<=>(const Key&, const Key&) = default;
  };

  Engine();
  explicit Engine(Options options);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Registers an actor; returns its id (dense, starting at 0). Must be
  /// called before run().
  int spawn(std::function<void(Actor&)> body);

  /// Runs all actors to completion. Throws util::Error on deadlock and
  /// re-throws the first exception escaping an actor body.
  void run();

  /// Wakes a parked actor; its clock becomes max(current, wake time,
  /// the executing event's time — a wakeup can never rewind the pop
  /// order). If the target is not parked (still runnable, or the unpark
  /// raced ahead of its park), a wakeup token is recorded and the
  /// target's next park() consumes it instead of blocking. Callable
  /// from inside a running event or before run().
  void unpark(int actor_id, SimTime not_before);

  /// True when the given actor is parked.
  bool is_parked(int actor_id) const;

  std::size_t num_actors() const { return actors_.size(); }

  /// Receives the token of each timed event when it pops.
  using TimedSink = void (*)(void* ctx, std::uint32_t token);

  /// Registers the one sink every timed event is handed to. Must be set
  /// before the first post_at().
  void set_timed_sink(TimedSink sink, void* ctx);

  /// Schedules a timed event at virtual time `t`, keyed (t, stamping
  /// actor, seq); when it pops, the timed sink receives `token`. The
  /// machine uses this to apply message deliveries at their arrival
  /// time. Only a slice may post (a timed event never emits further
  /// events), and `t` must be >= the slice's time.
  void post_at(SimTime t, std::uint32_t token);

  /// Events popped from the heap so far (slices and timed events).
  std::uint64_t heap_pops() const { return heap_pops_; }
  /// Slices that continued in place instead of round-tripping through
  /// the heap (see the file comment). Every slice is either popped or
  /// continued, so heap_pops() + in_place_slices() = slices + timed
  /// events.
  std::uint64_t in_place_slices() const { return in_place_slices_; }

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

  enum class State { kReady, kRunning, kParked, kDone };

  struct ActorSlot {
    std::unique_ptr<Actor> actor;
    std::unique_ptr<Fiber> fiber;
    State state = State::kReady;
    /// Wakeup token: an unpark that arrived while the actor was
    /// runnable; consumed by the next park() (see unpark()).
    bool wake_token = false;
    SimTime wake_time = 0.0;
    /// Per-actor stamp counter, monotone across this actor's slices in
    /// program order, so (stamping actor, seq) is unique machine-wide
    /// (two same-time slices of one actor cannot collide).
    std::int64_t next_seq = 0;
  };

  /// One schedulable event: a fiber slice (actor >= 0) or a timed
  /// event (actor < 0) whose token goes to the timed sink.
  struct Event {
    Key key;
    int actor = -1;
    std::uint32_t token = 0;
    friend bool operator>(const Event& x, const Event& y) {
      return y.key < x.key;
    }
  };
  static_assert(sizeof(Event) <= 40, "events stay small plain data");

  /// The executing event, for stamping post_at() keys and clamping
  /// unpark() wake times. `src` is -1 outside any event.
  struct ExecCtx {
    SimTime t = 0.0;
    int src = -1;
    std::int64_t next_seq = 0;
    bool slice = false;  ///< a fiber slice (may post) vs a timed event
  };

  void yield_from(int id);  // fiber -> scheduler
  /// Ends the running slice of `id` and starts its next one of `kind`,
  /// in place when that slice would be popped next.
  void next_slice(int id, int kind);
  void enqueue_slice(int id, int kind);
  void body_wrapper(int id, const std::function<void(Actor&)>& body);
  /// Executes one popped event (slice or timed event).
  void run_event(const Event& ev);
  void check_no_deadlock();

  Options options_;
  std::vector<ActorSlot> actors_;
  std::vector<std::function<void(Actor&)>> pending_bodies_;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap_;
  FiberContext main_ctx_{};
  ExecCtx exec_;
  TimedSink timed_sink_ = nullptr;
  void* timed_ctx_ = nullptr;
  std::uint64_t heap_pops_ = 0;
  std::uint64_t in_place_slices_ = 0;
  verify::Observer* observer_;
  std::exception_ptr error_;
  std::vector<SimTime> finish_times_;
  bool running_ = false;
};

}  // namespace mcio::sim
