#include "sim/engine.h"

#include <algorithm>
#include <bit>
#include <sstream>
#include <utility>

#include "util/check.h"

namespace mcio::sim {

void Actor::advance(SimTime dt) {
  MCIO_CHECK_GE(dt, 0.0);
  clock_ += dt;
}

void Actor::advance_to(SimTime t) { clock_ = std::max(clock_, t); }

void Actor::sync() { engine_->yield_slice(id_, /*kind=*/2); }

void Actor::sync_local() { engine_->yield_slice(id_, /*kind=*/1); }

void Actor::park() {
  engine_->actors_[static_cast<std::size_t>(id_)].state =
      Engine::State::kParked;
  engine_->yield_from(id_);
}

Engine::PackedKey Engine::pack(const Key& key) {
  const auto bits = std::bit_cast<std::uint64_t>(key.t);
  // +inf's bits bound the non-negative doubles; a set sign bit (-0.0,
  // negatives) or a NaN lies above them.
  MCIO_CHECK_MSG(bits <= 0x7ff0000000000000ull,
                 "slice time " << key.t << " is negative, -0.0 or NaN");
  return (static_cast<PackedKey>(bits) << 64) |
         (static_cast<PackedKey>(static_cast<std::uint32_t>(key.kind))
          << 32) |
         static_cast<std::uint32_t>(key.id);
}

Engine::Key Engine::unpack(PackedKey packed) {
  return Key{std::bit_cast<SimTime>(static_cast<std::uint64_t>(packed >> 64)),
             static_cast<int>(static_cast<std::uint32_t>(packed >> 32)),
             static_cast<int>(static_cast<std::uint32_t>(packed))};
}

Engine::Engine() : observer_(verify::default_observer()) {}

Engine::~Engine() = default;

void Engine::set_observer(verify::Observer* observer) {
  observer_ = verify::observer_or_noop(observer);
}

int Engine::spawn(std::function<void(Actor&)> body) {
  MCIO_CHECK_MSG(!running_, "spawn() after run() started");
  const int id = static_cast<int>(actors_.size());
  ActorSlot slot;
  slot.actor = std::unique_ptr<Actor>(new Actor(this, id));
  actors_.push_back(std::move(slot));
  pending_bodies_.push_back(std::move(body));
  return id;
}

void Engine::body_wrapper(int id, const std::function<void(Actor&)>& body) {
  auto& slot = actors_[static_cast<std::size_t>(id)];
  try {
    body(*slot.actor);
  } catch (...) {
    if (!error_) error_ = std::current_exception();
  }
  slot.state = State::kDone;
  finish_times_[static_cast<std::size_t>(id)] = slot.actor->now();
  // Falling off the fiber body returns to the scheduler context via the
  // fiber's link.
}

void Engine::run() {
  MCIO_CHECK_MSG(!running_, "run() is not reentrant");
  running_ = true;
  finish_times_.assign(actors_.size(), 0.0);
  for (std::size_t i = 0; i < actors_.size(); ++i) {
    const int id = static_cast<int>(i);
    actors_[i].fiber = std::make_unique<Fiber>(
        kFiberStackBytes,
        [this, id, body = std::move(pending_bodies_[i])] {
          body_wrapper(id, body);
        },
        &main_ctx_);
    heap_.push(pack(Key{0.0, /*kind=*/2, id}));
  }
  heap_high_water_ = std::max(heap_high_water_, heap_.size());
  pending_bodies_.clear();
  observer_->on_engine_start(static_cast<int>(actors_.size()));

  while (!heap_.empty()) {
    const Key key = unpack(heap_.top());
    heap_.pop();
    ++heap_pops_;
    run_slice(key);
    if (error_) std::rethrow_exception(error_);
  }
  check_no_deadlock();
}

void Engine::run_slice(const Key& key) {
  auto& slot = actors_[static_cast<std::size_t>(key.id)];
  slice_t_ = key.t;
  observer_->on_actor_resumed(key.id, slot.actor->now());
  slot.fiber->resume_from(&main_ctx_);
  observer_->on_actor_yielded(key.id, slot.actor->now());
  slice_t_ = 0.0;
}

void Engine::check_no_deadlock() {
  // Everyone must have finished; parked actors with no waker = deadlock.
  std::ostringstream stuck_text;
  std::vector<int> stuck;
  for (std::size_t i = 0; i < actors_.size(); ++i) {
    if (actors_[i].state != State::kDone) {
      stuck.push_back(static_cast<int>(i));
      stuck_text << ' ' << i;
    }
  }
  MCIO_CHECK_MSG(stuck.empty(),
                 "simulation deadlock; parked actors:"
                     << stuck_text.str()
                     << observer_->describe_deadlock(stuck));
}

void Engine::unpark(int actor_id, SimTime not_before) {
  auto& slot = actors_.at(static_cast<std::size_t>(actor_id));
  MCIO_CHECK_MSG(slot.state == State::kParked,
                 "unpark of actor " << actor_id << ", which is not parked");
  // A wakeup can never rewind behind the slice that issued it: the pop
  // order stays monotone.
  slot.actor->advance_to(std::max(not_before, slice_t_));
  enqueue_slice(actor_id,
                pack(Key{slot.actor->now(), /*kind=*/1, actor_id}));
}

SimTime Engine::makespan() const {
  SimTime t = 0.0;
  for (const SimTime f : finish_times_) t = std::max(t, f);
  return t;
}

void Engine::yield_from(int id) {
  actors_[static_cast<std::size_t>(id)].fiber->yield_to(&main_ctx_);
}

void Engine::yield_slice(int id, int kind) {
  const SimTime now = actors_[static_cast<std::size_t>(id)].actor->now();
  enqueue_slice(id, pack(Key{now, kind, id}));
  yield_from(id);
}

void Engine::enqueue_slice(int id, PackedKey key) {
  actors_[static_cast<std::size_t>(id)].state = State::kRunnable;
  heap_.push(key);
  heap_high_water_ = std::max(heap_high_water_, heap_.size());
}

}  // namespace mcio::sim
