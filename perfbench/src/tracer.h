// The traced run's instruments, attached from outside the simulator
// through its public seams:
//
//   Tracer     a passive verify::Observer that forwards every hook to an
//              inner observer (the global Auditor, so audit checks stay
//              on) while counting and timing at the engine, transport,
//              memory-lease and PFS touch points;
//   DriverTap  an io::CollectiveDriver wrapper that tells the Tracer
//              which host time rank slices spend inside write_all /
//              read_all, and records one span per collective.
//
// Spans are kept in memory and written out when the run ends. Nothing
// here advances virtual time or touches simulation state, so a traced
// simulation must reproduce the untraced one bit for bit (the benchmark
// checks that it does).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "io/driver.h"
#include "util/json.h"
#include "verify/observer.h"

namespace perfbench {

/// Host monotonic clock in seconds (only differences are meaningful).
double host_now();

/// One traced interval in host seconds. `busy_s` is the host time of the
/// span's aggregated child (the driver-call slices of a collective span):
/// those slices interleave with other ranks' work, so they are recorded
/// as one summed child, not as millions of intervals.
struct Span {
  std::string name;
  int parent = -1;  ///< index into the span list; -1 = top level
  double start_s = 0.0;
  double end_s = 0.0;
  double busy_s = 0.0;
};

class Tracer final : public mcio::verify::Observer {
 public:
  /// Host-side and census totals since construction.
  struct Totals {
    std::uint64_t slices = 0;       ///< rank slices resumed
    double slice_s = 0.0;           ///< host seconds inside rank slices
    double driver_s = 0.0;          ///< ... of which inside a driver call
    std::uint64_t messages = 0;     ///< envelopes delivered
    std::uint64_t message_bytes = 0;
    std::uint64_t unexpected = 0;   ///< deliveries with no posted receive
    std::uint64_t waits = 0;        ///< blocking receive waits
    std::uint64_t lease_grants = 0;
    std::uint64_t pfs_writes = 0;
    std::uint64_t pfs_reads = 0;
    std::uint64_t pfs_bytes_written = 0;
    std::uint64_t pfs_bytes_read = 0;
  };

  /// `inner` receives every hook; nullptr forwards to the no-op observer
  /// (the benchmark's auditor-off timing pass).
  explicit Tracer(mcio::verify::Observer* inner);

  const Totals& totals() const { return totals_; }
  std::vector<Span>& spans() { return spans_; }
  /// Appends a span and returns its index.
  int add_span(Span span);

  /// Driver-call brackets, called by DriverTap from inside a rank slice.
  void enter_driver(int actor);
  void leave_driver(int actor);

  void on_engine_start(int num_actors) override;
  void on_actor_resumed(int actor, double clock) override;
  void on_actor_yielded(int actor, double clock) override;
  std::string describe_deadlock(std::span<const int> stuck) override;
  void on_message_delivered(std::uint64_t comm_id, int src, int dst_world,
                            int tag, std::uint64_t bytes,
                            bool matched) override;
  void on_wait_begin(int actor, std::uint64_t comm_id, int src_world,
                     int tag) override;
  void on_wait_end(int actor) override;
  void on_orphan_message(int dst_world, std::uint64_t comm_id, int src,
                         int tag, std::uint64_t bytes) override;
  void on_orphan_recv(int dst_world, std::uint64_t comm_id, int src,
                      int tag) override;
  void on_lease_grant(const void* mgr, int node,
                      std::uint64_t bytes) override;
  void on_lease_release(const void* mgr, int node,
                        std::uint64_t bytes) override;
  void on_manager_destroyed(const void* mgr) override;
  void on_pfs_write(const void* fs, int file, std::uint64_t offset,
                    std::uint64_t len) override;
  void on_pfs_read(const void* fs, int file, std::uint64_t offset,
                   std::uint64_t len) override;
  void on_pfs_destroyed(const void* fs) override;
  void on_collective_begin(
      const void* fs, int file, bool is_write, int participants, int rank,
      std::span<const mcio::util::Extent> extents) override;
  void on_collective_end(const void* fs, int file, bool is_write,
                         int rank) override;
  void on_run_end() override;
  void on_run_aborted() override;

 private:
  mcio::verify::Observer* inner_;
  Totals totals_;
  std::vector<Span> spans_;
  /// Per actor: inside a driver call (1) or not (0).
  std::vector<std::uint8_t> in_driver_;
  double slice_start_ = 0.0;
  /// Start of the driver-attributed part of the current slice.
  double driver_mark_ = 0.0;
};

/// Forwards to `inner`, bracketing each call for the Tracer and
/// recording one span per collective: from the first rank's entry to the
/// last rank's exit, with the summed driver-call slices as its child.
class DriverTap final : public mcio::io::CollectiveDriver {
 public:
  /// Collective spans are named "<label> write" / "<label> read" and
  /// parented to span `parent`.
  DriverTap(mcio::io::CollectiveDriver& inner, Tracer& tracer, int nranks,
            std::string label, int parent);

  void write_all(mcio::io::CollContext& ctx,
                 const mcio::io::AccessPlan& plan) override;
  void read_all(mcio::io::CollContext& ctx,
                const mcio::io::AccessPlan& plan) override;
  const char* name() const override { return inner_.name(); }

 private:
  void enter(int actor);
  void leave(int actor, const char* op);

  mcio::io::CollectiveDriver& inner_;
  Tracer& tracer_;
  int nranks_;
  std::string label_;
  int parent_;
  int entered_ = 0;
  int left_ = 0;
  double start_s_ = 0.0;
  double driver_s0_ = 0.0;
};

/// The span list as JSON, with each span's self time (duration minus
/// its children's, the summed driver slices counting as a child).
mcio::util::Json spans_json(const std::vector<Span>& spans);

}  // namespace perfbench
