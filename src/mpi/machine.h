// The simulated parallel machine: cluster resources + message transport +
// rank launcher.
//
// Machine::run() spawns one fiber per MPI rank, hands each a Rank context
// (actor + world communicator) and drives the virtual-time engine to
// completion. Transport costs: inter-node messages traverse the sender's
// NIC egress queue then the receiver's NIC ingress queue; intra-node
// messages cross the shared node memory bus — which is exactly where the
// paper's off-chip bandwidth contention shows up.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "mpi/message.h"
#include "sim/engine.h"
#include "sim/topology.h"
#include "verify/observer.h"

namespace mcio::mpi {

class Comm;
class Rank;

/// The world of one run: its ranks' node topology, computed once per run
/// and shared by every rank's handle on it.
struct Group {
  /// The world id the verify::Observer hooks report: a content hash of
  /// the run size.
  std::uint64_t id = 0;
  std::vector<int> nodes;  ///< physical node of each rank
  /// Each node's ranks ascending; groups ordered by leader (lowest member).
  std::vector<std::vector<int>> node_groups;
  /// Index into node_groups of each rank.
  std::vector<int> node_group_of;
  /// The lowest rank on each node, ascending (node_groups' leaders).
  std::vector<int> node_leaders;
};

/// One rank's take of a collective's shared plan (Machine::share_plan).
struct SharedPlan {
  std::shared_ptr<const void> plan;
  /// Hash of the builder's rank-local plan inputs.
  std::uint64_t key = 0;
  /// The memo key: the collective sequence.
  std::uint64_t seq = 0;
};

class Machine {
 public:
  explicit Machine(const sim::ClusterConfig& config);

  sim::Cluster& cluster() { return cluster_; }
  const sim::ClusterConfig& config() const { return cluster_.config(); }

  /// Runs `nranks` rank bodies to completion (nranks defaults to all core
  /// slots). Returns per-rank virtual finish times.
  std::vector<sim::SimTime> run(int nranks,
                                const std::function<void(Rank&)>& body);

  /// The world group of the current run, built once per run().
  const std::shared_ptr<const Group>& world_group() const {
    return world_group_;
  }

  /// The plan memo of collective `seq`, taken by `takers` ranks: the
  /// first to ask runs `build` and records its input hash `key`; every
  /// ask gets the same object and the builder's key. The entry is dropped
  /// once all `takers` took it; one still present when run() ends is
  /// reported to the observer.
  SharedPlan share_plan(std::uint64_t seq, int takers, std::uint64_t key,
                        const std::function<std::shared_ptr<const void>()>&
                            build);
  /// Plans built through share_plan() since construction.
  std::uint64_t plan_builds() const { return plan_builds_; }

  /// Reductions over a gathered allreduce vector since construction: one
  /// per allreduce, done where the root decodes the shared wire.
  std::uint64_t reduce_passes() const { return reduce_passes_; }

  /// Slices run (sim::Engine::heap_pops()) summed over every run()
  /// since construction.
  std::uint64_t heap_pops() const { return heap_pops_; }
  /// Max of sim::Engine::heap_high_water() over every run().
  std::size_t heap_high_water() const { return heap_high_water_; }

  // --- transport internals (used by Comm) ---

  /// Computes the arrival time of `bytes` sent from src_node to
  /// dst_node starting at `start` and charges the resources involved:
  /// the node's memory bus when both ends share a node, else the
  /// sender's NIC egress then the receiver's NIC ingress.
  sim::SimTime transfer(int src_node, int dst_node, std::uint64_t bytes,
                        sim::SimTime start);

  /// Same-node single-copy transfer over the node's shared-memory channel
  /// (the node-leader hierarchy's combine/scatter path). Charges only the
  /// shm queue: the receiver maps the segment, no membus double-pass.
  sim::SimTime shm_transfer(int node, std::uint64_t bytes,
                            sim::SimTime start);

  /// Delivers an envelope whose arrival is already stamped, at send
  /// time: it completes the oldest receive posted under its key and
  /// wakes the receiver at env.arrival if it is parked on that receive,
  /// or else queues as unexpected in the envelope slab. A message that
  /// would arrive before a known earlier message of its key is a CHECK
  /// failure (matching is in send order).
  void deliver(int dst, Envelope env);

  /// Counts one allreduce reduction (reduce_passes()).
  void count_reduce_pass() { ++reduce_passes_; }

  /// The run's parked envelopes, named by parcel index.
  EnvelopeSlab& envelopes() { return envelopes_; }
  /// The run's receive slots, named by slot index.
  SlotPool& slots() { return slots_; }
  /// The run's one match table.
  MatchTable& matches() { return matches_; }
  sim::Engine& engine();

  /// Verification observer for transport and run-lifecycle events (never
  /// null; defaults to verify::global_observer() or a no-op). Also
  /// attached to the engine of each run().
  void set_observer(verify::Observer* observer);
  verify::Observer* observer() const { return observer_; }

 private:
  /// The world of ranks 0..nranks-1 and its node topology.
  std::shared_ptr<const Group> make_world_group(int nranks) const;

  sim::Cluster cluster_;
  EnvelopeSlab envelopes_;
  SlotPool slots_;
  MatchTable matches_;
  /// Each rank's context while its body runs (see run()).
  std::vector<std::unique_ptr<Rank>> ranks_;
  std::shared_ptr<const Group> world_group_;
  /// Each sender's latest message: its key and arrival, for deliver()'s
  /// non-overtaking guard.
  struct LastSend {
    int dst = -1;
    int tag = 0;
    sim::SimTime arrival = 0.0;
  };
  std::vector<LastSend> last_send_;

  struct MemoEntry {
    SharedPlan shared;
    int takers = 0;
    int taken = 0;
  };
  /// Live plan-memo entries by collective sequence. Only touched from the
  /// engine's thread.
  std::map<std::uint64_t, MemoEntry> memo_;
  std::uint64_t plan_builds_ = 0;
  std::uint64_t reduce_passes_ = 0;
  std::uint64_t heap_pops_ = 0;
  std::size_t heap_high_water_ = 0;
  sim::Engine* engine_ = nullptr;  // valid during run()
  verify::Observer* observer_;
};

/// Per-rank execution context passed to rank bodies.
class Rank {
 public:
  Rank(Machine& machine, sim::Actor& actor, int world_rank);
  ~Rank();

  Rank(const Rank&) = delete;
  Rank& operator=(const Rank&) = delete;

  int rank() const { return world_rank_; }
  int node() const;
  sim::Actor& actor() { return actor_; }
  Machine& machine() { return machine_; }

  /// World communicator (all ranks of this run).
  Comm& world() { return *world_; }

 private:
  Machine& machine_;
  sim::Actor& actor_;
  int world_rank_;
  std::unique_ptr<Comm> world_;
};

}  // namespace mcio::mpi
