#include "mpi/machine.h"

#include <algorithm>

#include "mpi/comm.h"
#include "util/check.h"

namespace mcio::mpi {

Machine::Machine(const sim::ClusterConfig& config)
    : cluster_(config), observer_(verify::default_observer()) {}

void Machine::set_observer(verify::Observer* observer) {
  observer_ = verify::observer_or_noop(observer);
}

std::vector<sim::SimTime> Machine::run(
    int nranks, const std::function<void(Rank&)>& body) {
  MCIO_CHECK_GT(nranks, 0);
  MCIO_CHECK_MSG(nranks <= cluster_.total_ranks(),
                 "nranks " << nranks << " exceeds cluster slots "
                           << cluster_.total_ranks());
  envelopes_.clear();
  slots_.clear();
  matches_.clear();
  last_send_.assign(static_cast<std::size_t>(nranks), LastSend{});
  memo_.clear();
  world_group_ = make_world_group(nranks);
  sim::Engine engine;
  engine.set_observer(observer_);
  engine_ = &engine;
  struct CountOnExit {
    Machine* m;
    const sim::Engine& e;
    ~CountOnExit() {
      m->heap_pops_ += e.heap_pops();
      m->heap_high_water_ = std::max(m->heap_high_water_,
                                     e.heap_high_water());
    }
  } count_on_exit{this, engine};
  ranks_.clear();
  ranks_.resize(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    engine.spawn([this, r, &body](sim::Actor& actor) {
      // The machine owns the rank context, so a rank whose fiber never
      // finishes (a deadlocked run) still frees it when the run ends.
      std::unique_ptr<Rank>& rank = ranks_[static_cast<std::size_t>(r)];
      rank = std::make_unique<Rank>(*this, actor, r);
      body(*rank);
      rank.reset();
    });
  }
  try {
    engine.run();
  } catch (...) {
    engine_ = nullptr;
    ranks_.clear();
    memo_.clear();
    observer_->on_run_aborted();
    throw;
  }
  engine_ = nullptr;
  // Orphan sweep: every delivered message must have been received and
  // every posted receive matched by the time the run completes.
  const std::uint64_t world_id = world_group_->id;
  matches_.for_each([&](const MatchTable::Cell& c) {
    const int dst = static_cast<int>(c.dst);
    if (c.side == MatchTable::kMessages) {
      for (std::uint32_t p = c.head; p != kNone; p = envelopes_[p].next) {
        const Envelope& env = envelopes_[p];
        observer_->on_orphan_message(dst, world_id, env.src, env.tag,
                                     env.body.size());
      }
    } else {
      for (std::uint32_t s = c.head; s != kNone; s = slots_[s].next) {
        observer_->on_orphan_recv(dst, world_id, static_cast<int>(c.src),
                                  static_cast<int>(c.tag));
      }
    }
  });
  // Every shared plan must have been taken by all of its ranks.
  for (const auto& [seq, entry] : memo_) {
    observer_->on_orphan_plan(world_id, seq, entry.taken, entry.takers);
  }
  memo_.clear();
  observer_->on_run_end();  // may throw on findings (enforcing mode)
  return engine.finish_times();
}

std::shared_ptr<const Group> Machine::make_world_group(int nranks) const {
  auto g = std::make_shared<Group>();
  const auto n = static_cast<std::size_t>(nranks);
  // Content hash (FNV-1a over the size and the ranks 0..n-1, top bit
  // clear): the id is a pure function of the run size, never of which
  // rank asks first.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  mix(n);
  for (std::size_t r = 0; r < n; ++r) mix(r);
  g->id = h & ~(1ull << 63);
  // Node topology: a counting pass buckets the ranks by node, and the
  // first-seen order of nodes in rank order is exactly the leader order.
  g->nodes.resize(n);
  g->node_group_of.resize(n);
  std::vector<int> group_of_node(
      static_cast<std::size_t>(cluster_.config().num_nodes), -1);
  for (std::size_t r = 0; r < n; ++r) {
    const int node = cluster_.node_of_rank(static_cast<int>(r));
    g->nodes[r] = node;
    int& gi = group_of_node[static_cast<std::size_t>(node)];
    if (gi < 0) {
      gi = static_cast<int>(g->node_groups.size());
      g->node_groups.emplace_back();
      g->node_leaders.push_back(static_cast<int>(r));
    }
    g->node_groups[static_cast<std::size_t>(gi)].push_back(
        static_cast<int>(r));
    g->node_group_of[r] = gi;
  }
  return g;
}

SharedPlan Machine::share_plan(
    std::uint64_t seq, int takers, std::uint64_t key,
    const std::function<std::shared_ptr<const void>()>& build) {
  auto it = memo_.find(seq);
  if (it == memo_.end()) {
    MemoEntry entry{SharedPlan{build(), key, seq}, takers, 0};
    it = memo_.emplace(seq, std::move(entry)).first;
    ++plan_builds_;
  }
  MemoEntry& entry = it->second;
  MCIO_CHECK_EQ(entry.takers, takers);
  SharedPlan out = entry.shared;
  if (++entry.taken == entry.takers) memo_.erase(it);
  return out;
}

sim::SimTime Machine::transfer(int src_node, int dst_node,
                               std::uint64_t bytes, sim::SimTime start) {
  const auto fbytes = static_cast<double>(bytes);
  if (src_node == dst_node) {
    // Intra-node: one pass over the shared off-chip memory bus.
    return cluster_.membus(src_node).serve(start, fbytes);
  }
  const sim::SimTime sent =
      cluster_.nic_out(src_node).serve(start, fbytes);
  return cluster_.nic_in(dst_node).serve(sent, fbytes);
}

sim::SimTime Machine::shm_transfer(int node, std::uint64_t bytes,
                                   sim::SimTime start) {
  return cluster_.shm(node).serve(start, static_cast<double>(bytes));
}

void Machine::deliver(int dst, Envelope env) {
  // Matched now, in send order per key. A receive completes at
  // max(its wait, the arrival) whenever the match happens, so the
  // message needs no event of its own.
  MCIO_CHECK_MSG(engine_ != nullptr, "delivery outside run()");
  MatchTable::Cell& cell = matches_.probe(
      MatchKey{static_cast<std::uint32_t>(dst),
               static_cast<std::uint32_t>(env.src),
               static_cast<std::uint32_t>(env.tag)});
  const bool matched = cell.waits(MatchTable::kReceives);
  // Messages match in send order, so one key's messages must also arrive
  // in send order: a message may not overtake the key's previous one
  // (say, one sent over shm, then one over the transport). Its arrival
  // is known here while the key's cell lives, as the message queued
  // before this one or, carried by the receive this one completes, the
  // message matched before it; and as the sender's own previous message
  // when that went to the same key.
  sim::SimTime floor = 0.0;
  if (matched) {
    floor = slots_[cell.head].status.arrival;
  } else if (cell.head != kNone) {
    floor = envelopes_[cell.tail].arrival;
  }
  LastSend& last = last_send_[static_cast<std::size_t>(env.src)];
  if (last.dst == dst && last.tag == env.tag) {
    floor = std::max(floor, last.arrival);
  }
  last = LastSend{dst, env.tag, env.arrival};
  MCIO_CHECK_MSG(env.arrival >= floor,
                 "message (tag " << env.tag << ") overtakes the one sent "
                                 << "before it on its key");
  observer_->on_message_delivered(world_group_->id, env.src, dst, env.tag,
                                  env.body.size(), matched);
  if (!matched) {
    const std::uint32_t p = envelopes_.add(std::move(env));
    if (cell.head != kNone) envelopes_[cell.tail].next = p;
    MatchTable::append(cell, MatchTable::kMessages, p);
    return;
  }
  RecvSlot& slot = slots_[cell.head];
  matches_.pop(cell, slot.next);
  // The next receive waiting on this key has not used its status yet:
  // it carries this arrival, the floor of the message that completes it.
  if (slot.next != kNone) slots_[slot.next].status.arrival = env.arrival;
  const sim::SimTime arrival = env.arrival;
  if (slot.take) {
    fulfill(slot, envelopes_, envelopes_.add(std::move(env)));
  } else {
    complete(slot, env);
  }
  // Only a receiver parked on this very receive waits for it; one that
  // waits later moves its clock to the arrival (Comm::park_until_done).
  if (slot.parked) engine_->unpark(dst, arrival);
}

sim::Engine& Machine::engine() {
  MCIO_CHECK_MSG(engine_ != nullptr, "engine only valid during run()");
  return *engine_;
}

Rank::Rank(Machine& machine, sim::Actor& actor, int world_rank)
    : machine_(machine), actor_(actor), world_rank_(world_rank) {
  world_ = std::unique_ptr<Comm>(new Comm(&machine, this));
}

Rank::~Rank() = default;

int Rank::node() const {
  return machine_.cluster().node_of_rank(world_rank_);
}

}  // namespace mcio::mpi
