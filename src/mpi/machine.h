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
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "verify/observer.h"

namespace mcio::mpi {

class Comm;
class Rank;

class Machine {
 public:
  explicit Machine(const sim::ClusterConfig& config);

  sim::Cluster& cluster() { return cluster_; }
  const sim::ClusterConfig& config() const { return cluster_.config(); }

  /// Runs `nranks` rank bodies to completion (nranks defaults to all core
  /// slots). Returns per-rank virtual finish times.
  std::vector<sim::SimTime> run(int nranks,
                                const std::function<void(Rank&)>& body);

  /// Interns a communicator group; identical member lists get the same
  /// id. The id is a content hash of the member list (top bit reserved
  /// for Comm::dup()'s generated ids), so it does not depend on which
  /// rank interns the group first.
  std::uint64_t intern_group(const std::vector<int>& world_members);

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

  /// Delivers an envelope whose arrival is already stamped: the delivery
  /// applies as a timed event at env.arrival, where it matches a posted
  /// receive or queues as unexpected and wakes a parked receiver.
  void deliver(int world_dst, Envelope env);

  Endpoint& endpoint(int world_rank);
  sim::Engine& engine();

  /// Verification observer for transport and run-lifecycle events (never
  /// null; defaults to verify::global_observer() or a no-op). Also
  /// attached to the engine of each run().
  void set_observer(verify::Observer* observer);
  verify::Observer* observer() const { return observer_; }

 private:
  /// Applies a delivery to the destination endpoint (no scheduling).
  void deliver_now(int world_dst, Envelope env);

  sim::Cluster cluster_;
  std::vector<Endpoint> endpoints_;
  /// Interned groups by content hash, for collision detection. Every
  /// caller runs on the engine's thread; the lock is kept so interning
  /// stays safe for any concurrent caller.
  std::map<std::uint64_t, std::vector<int>> group_ids_
      MCIO_GUARDED_BY(group_mu_);
  util::Mutex group_mu_;
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
