#include "sim/engine.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "util/check.h"

namespace mcio::sim {

namespace {
constexpr double kSlackTolerance = 1e-12;
}  // namespace

void Actor::advance(SimTime dt) {
  MCIO_CHECK_GE(dt, 0.0);
  clock_ += dt;
}

void Actor::advance_to(SimTime t) { clock_ = std::max(clock_, t); }

void Actor::sync() { engine_->next_slice(id_, /*kind=*/2); }

void Actor::sync_local() { engine_->next_slice(id_, /*kind=*/1); }

void Actor::park() {
  auto& slot = engine_->actors_[static_cast<std::size_t>(id_)];
  if (slot.wake_token) {
    // An unpark raced ahead of this park (a waker that ran while we were
    // still runnable): consume the token instead of blocking on a wakeup
    // that already happened.
    slot.wake_token = false;
    advance_to(slot.wake_time);
    slot.wake_time = 0.0;
    return;
  }
  slot.state = Engine::State::kParked;
  engine_->yield_from(id_);
}

Engine::Engine() : Engine(Options{}) {}

Engine::Engine(Options options)
    : options_(options), observer_(verify::default_observer()) {}

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

void Engine::set_timed_sink(TimedSink sink, void* ctx) {
  timed_sink_ = sink;
  timed_ctx_ = ctx;
}

void Engine::post_at(SimTime t, std::uint32_t token) {
  MCIO_CHECK_MSG(exec_.slice, "post_at() outside a fiber slice");
  MCIO_CHECK_MSG(timed_sink_ != nullptr, "post_at() without a timed sink");
  MCIO_CHECK_GE(t, exec_.t - kSlackTolerance);
  const Key key{t, /*kind=*/0, exec_.src, exec_.next_seq++};
  heap_.push(Event{key, -1, token});
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
        options_.stack_bytes,
        [this, id, body = std::move(pending_bodies_[i])] {
          body_wrapper(id, body);
        },
        &main_ctx_);
    heap_.push(Event{Key{0.0, /*kind=*/2, id, -1}, id});
  }
  pending_bodies_.clear();
  observer_->on_engine_start(static_cast<int>(actors_.size()));

  while (!heap_.empty()) {
    const Event ev = heap_.top();
    heap_.pop();
    ++heap_pops_;
    run_event(ev);
    if (error_) std::rethrow_exception(error_);
  }
  check_no_deadlock();
}

void Engine::run_event(const Event& ev) {
  if (ev.actor >= 0) {
    auto& slot = actors_[static_cast<std::size_t>(ev.actor)];
    exec_ = ExecCtx{ev.key.t, ev.actor, slot.next_seq, /*slice=*/true};
    slot.state = State::kRunning;
    observer_->on_actor_resumed(ev.actor, slot.actor->now());
    slot.fiber->resume_from(&main_ctx_);
    observer_->on_actor_yielded(ev.actor, slot.actor->now());
    slot.next_seq = exec_.next_seq;
  } else {
    // Timed events (message deliveries) may wake their target but never
    // emit further events.
    exec_ = ExecCtx{ev.key.t, ev.key.a, ev.key.b + 1, /*slice=*/false};
    timed_sink_(timed_ctx_, ev.token);
  }
  exec_ = ExecCtx{};
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
  MCIO_CHECK_MSG(slot.state != State::kDone,
                 "unpark of finished actor " << actor_id);
  // A wakeup can never rewind behind the event that issued it: the pop
  // order stays monotone.
  if (exec_.src >= 0) not_before = std::max(not_before, exec_.t);
  if (slot.state == State::kParked) {
    slot.actor->advance_to(not_before);
    enqueue_slice(actor_id, /*kind=*/1);
    return;
  }
  // Not parked yet: record a wakeup token the next park() consumes.
  slot.wake_token = true;
  slot.wake_time = std::max(slot.wake_time, not_before);
}

bool Engine::is_parked(int actor_id) const {
  return actors_.at(static_cast<std::size_t>(actor_id)).state ==
         State::kParked;
}

SimTime Engine::makespan() const {
  SimTime t = 0.0;
  for (const SimTime f : finish_times_) t = std::max(t, f);
  return t;
}

void Engine::yield_from(int id) {
  actors_[static_cast<std::size_t>(id)].fiber->yield_to(&main_ctx_);
}

void Engine::next_slice(int id, int kind) {
  const SimTime now = actors_[static_cast<std::size_t>(id)].actor->now();
  if (heap_.empty() || Key{now, kind, id, -1} < heap_.top().key) {
    // The heap would hand this very slice back: continue in place (see
    // the file comment), keeping the slice boundary visible.
    ++in_place_slices_;
    observer_->on_actor_yielded(id, now);
    observer_->on_actor_resumed(id, now);
    exec_.t = now;
    return;
  }
  enqueue_slice(id, kind);
  yield_from(id);
}

void Engine::enqueue_slice(int id, int kind) {
  auto& slot = actors_[static_cast<std::size_t>(id)];
  slot.state = State::kReady;
  heap_.push(Event{Key{slot.actor->now(), kind, id, -1}, id});
}

}  // namespace mcio::sim
