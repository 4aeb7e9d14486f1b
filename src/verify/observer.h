// The narrow observer interface between the simulation engines and the
// verification layer.
//
// Every component that owns shared simulation state — the virtual-time
// engine, the message transport, the memory manager, the PFS — exposes a
// `set_observer()` seam and emits the events below at its interaction
// points. Observers are strictly passive: they never advance virtual
// time, charge resources, or mutate simulation state, so an attached
// observer cannot change any simulated result (figure tables stay
// byte-identical with auditing on or off).
//
// The default observer is the process-wide verify::Auditor (see
// auditor.h), so every Machine/MemoryManager/Pfs constructed is audited
// unless the process opts out with set_global_observer(nullptr) — the
// benches' `--no-audit` flag.
//
// Adding a new engine touch point? Emit an event here (or reuse one),
// keep the hook outside the virtual-time arithmetic, and teach the
// Auditor what invariant the event feeds. DESIGN.md §8 walks through the
// pattern; mcio-analyze's unobserved-park rule enforces it for blocking
// waits.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "util/extent.h"

namespace mcio::verify {

/// Passive event sink. All hooks default to no-ops so observers override
/// only what they need; `describe_deadlock` may return extra diagnostic
/// text appended to the engine's deadlock error.
class Observer {
 public:
  virtual ~Observer() = default;

  // --- virtual-time engine (sim::Engine) ---
  /// A run is starting with `num_actors` fibers (ids dense from 0).
  virtual void on_engine_start(int num_actors) { (void)num_actors; }
  /// The scheduler is handing the CPU to `actor` at virtual `clock`.
  virtual void on_actor_resumed(int actor, double clock) {
    (void)actor;
    (void)clock;
  }
  /// `actor` yielded (or finished) with its clock at `clock`.
  virtual void on_actor_yielded(int actor, double clock) {
    (void)actor;
    (void)clock;
  }
  /// The ready queue drained with `stuck` actors not Done. Returns text
  /// appended to the engine's deadlock diagnostic (blocked waits, cycles,
  /// held resources); default adds nothing.
  virtual std::string describe_deadlock(std::span<const int> stuck) {
    (void)stuck;
    return {};
  }

  // --- message transport (mpi::Machine / mpi::Comm) ---
  /// An envelope was sent to `dst_world`, where it is matched at once:
  /// `matched` = a receive posted before the send took it (otherwise it
  /// queued as unexpected).
  virtual void on_message_delivered(std::uint64_t comm_id, int src,
                                    int dst_world, int tag,
                                    std::uint64_t bytes, bool matched) {
    (void)comm_id;
    (void)src;
    (void)dst_world;
    (void)tag;
    (void)bytes;
    (void)matched;
  }
  /// `actor` is about to wait for a receive matching (comm_id,
  /// src_world, tag): it parks until the send, or moves its clock to the
  /// arrival of a message already matched that arrives past it. Paired
  /// with on_wait_end.
  virtual void on_wait_begin(int actor, std::uint64_t comm_id,
                             int src_world, int tag) {
    (void)actor;
    (void)comm_id;
    (void)src_world;
    (void)tag;
  }
  virtual void on_wait_end(int actor) { (void)actor; }
  /// End-of-run sweep: a delivered message no receive ever matched.
  virtual void on_orphan_message(int dst_world, std::uint64_t comm_id,
                                 int src, int tag, std::uint64_t bytes) {
    (void)dst_world;
    (void)comm_id;
    (void)src;
    (void)tag;
    (void)bytes;
  }
  /// End-of-run sweep: a posted receive no message ever matched.
  virtual void on_orphan_recv(int dst_world, std::uint64_t comm_id,
                              int src, int tag) {
    (void)dst_world;
    (void)comm_id;
    (void)src;
    (void)tag;
  }

  /// End-of-run sweep: the shared plan of collective `seq` on
  /// communicator `comm_id` was taken by only `taken` of its `takers`
  /// ranks (mpi::Machine::share_plan).
  virtual void on_orphan_plan(std::uint64_t comm_id, std::uint64_t seq,
                              int taken, int takers) {
    (void)comm_id;
    (void)seq;
    (void)taken;
    (void)takers;
  }

  // --- shared collective plans (io drivers) ---
  /// `rank` (world) took the shared plan of collective `seq` on
  /// communicator `comm_id`. `plan_key` hashes the builder's rank-local
  /// planner inputs and `rank_key` this rank's: a difference means this
  /// rank would have planned differently. `live_reads_agree` is false
  /// when this rank re-evaluated the plan's recorded reads of live state
  /// (MCCIO's donor elections) and got a different answer.
  virtual void on_plan_taken(std::uint64_t comm_id, std::uint64_t seq,
                             int rank, std::uint64_t plan_key,
                             std::uint64_t rank_key, bool live_reads_agree) {
    (void)comm_id;
    (void)seq;
    (void)rank;
    (void)plan_key;
    (void)rank_key;
    (void)live_reads_agree;
  }

  // --- memory leases (node::MemoryManager) ---
  /// `mgr` is an opaque identity for the granting manager instance.
  virtual void on_lease_grant(const void* mgr, int node,
                              std::uint64_t bytes) {
    (void)mgr;
    (void)node;
    (void)bytes;
  }
  virtual void on_lease_release(const void* mgr, int node,
                                std::uint64_t bytes) {
    (void)mgr;
    (void)node;
    (void)bytes;
  }
  virtual void on_manager_destroyed(const void* mgr) { (void)mgr; }

  // --- parallel file system (pfs::Pfs) ---
  virtual void on_pfs_write(const void* fs, int file, std::uint64_t offset,
                            std::uint64_t len) {
    (void)fs;
    (void)file;
    (void)offset;
    (void)len;
  }
  virtual void on_pfs_read(const void* fs, int file, std::uint64_t offset,
                           std::uint64_t len) {
    (void)fs;
    (void)file;
    (void)offset;
    (void)len;
  }
  virtual void on_pfs_destroyed(const void* fs) { (void)fs; }

  // --- collective epochs (io::MPIFile) ---
  /// `rank` (world) enters a collective write/read on (fs, file) with
  /// `participants` total ranks; `extents` is this rank's planned bytes.
  virtual void on_collective_begin(const void* fs, int file, bool is_write,
                                   int participants, int rank,
                                   std::span<const util::Extent> extents) {
    (void)fs;
    (void)file;
    (void)is_write;
    (void)participants;
    (void)rank;
    (void)extents;
  }
  virtual void on_collective_end(const void* fs, int file, bool is_write,
                                 int rank) {
    (void)fs;
    (void)file;
    (void)is_write;
    (void)rank;
  }

  // --- run lifecycle (mpi::Machine) ---
  /// All actors completed and the orphan sweep ran. An enforcing
  /// observer may throw util::Error here to fail the run.
  virtual void on_run_end() {}
  /// The run is unwinding on an exception; transient state (open epochs,
  /// wait records, pending findings) should be discarded.
  virtual void on_run_aborted() {}
};

/// The process-wide observer every newly constructed Machine,
/// MemoryManager, Pfs and Engine attaches by default. Starts as
/// &global_auditor(); set to nullptr to disable auditing (`--no-audit`).
Observer* global_observer();
void set_global_observer(Observer* observer);

/// True when the default global Auditor is the active global observer.
bool global_audit_active();

/// A shared do-nothing observer. Components keep their observer pointer
/// non-null by substituting this for nullptr, so emitting an event is an
/// unconditional virtual call (no branch on the hot path).
Observer& noop_observer();

/// `observer` if non-null, else the shared no-op instance.
inline Observer* observer_or_noop(Observer* observer) {
  return observer != nullptr ? observer : &noop_observer();
}

/// The process-wide default for newly constructed components:
/// global_observer() with nullptr mapped to the no-op instance.
inline Observer* default_observer() {
  return observer_or_noop(global_observer());
}

}  // namespace mcio::verify
