#include "tracer.h"

#include <chrono>
#include <utility>

namespace perfbench {

double host_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Tracer(mcio::verify::Observer* inner)
    : inner_(mcio::verify::observer_or_noop(inner)) {}

int Tracer::add_span(Span span) {
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::enter_driver(int actor) {
  in_driver_[static_cast<std::size_t>(actor)] = 1;
  driver_mark_ = host_now();
}

void Tracer::leave_driver(int actor) {
  totals_.driver_s += host_now() - driver_mark_;
  in_driver_[static_cast<std::size_t>(actor)] = 0;
}

void Tracer::on_engine_start(int num_actors) {
  in_driver_.assign(static_cast<std::size_t>(num_actors), 0);
  inner_->on_engine_start(num_actors);
}

// Slice timestamps are taken after forwarding a resume and before
// forwarding a yield, so the inner observer's own hook cost falls
// outside the slice (it is the verify layer's, measured separately).
void Tracer::on_actor_resumed(int actor, double clock) {
  inner_->on_actor_resumed(actor, clock);
  ++totals_.slices;
  slice_start_ = host_now();
  driver_mark_ = slice_start_;
}

void Tracer::on_actor_yielded(int actor, double clock) {
  const double now = host_now();
  totals_.slice_s += now - slice_start_;
  if (in_driver_[static_cast<std::size_t>(actor)] != 0) {
    totals_.driver_s += now - driver_mark_;
  }
  inner_->on_actor_yielded(actor, clock);
}

std::string Tracer::describe_deadlock(std::span<const int> stuck) {
  return inner_->describe_deadlock(stuck);
}

void Tracer::on_message_delivered(std::uint64_t comm_id, int src,
                                  int dst_world, int tag,
                                  std::uint64_t bytes, bool matched) {
  ++totals_.messages;
  totals_.message_bytes += bytes;
  if (!matched) ++totals_.unexpected;
  inner_->on_message_delivered(comm_id, src, dst_world, tag, bytes,
                               matched);
}

void Tracer::on_wait_begin(int actor, std::uint64_t comm_id, int src_world,
                           int tag) {
  ++totals_.waits;
  inner_->on_wait_begin(actor, comm_id, src_world, tag);
}

void Tracer::on_wait_end(int actor) { inner_->on_wait_end(actor); }

void Tracer::on_orphan_message(int dst_world, std::uint64_t comm_id, int src,
                               int tag, std::uint64_t bytes) {
  inner_->on_orphan_message(dst_world, comm_id, src, tag, bytes);
}

void Tracer::on_orphan_recv(int dst_world, std::uint64_t comm_id, int src,
                            int tag) {
  inner_->on_orphan_recv(dst_world, comm_id, src, tag);
}

void Tracer::on_lease_grant(const void* mgr, int node, std::uint64_t bytes) {
  ++totals_.lease_grants;
  inner_->on_lease_grant(mgr, node, bytes);
}

void Tracer::on_lease_release(const void* mgr, int node,
                              std::uint64_t bytes) {
  inner_->on_lease_release(mgr, node, bytes);
}

void Tracer::on_manager_destroyed(const void* mgr) {
  inner_->on_manager_destroyed(mgr);
}

void Tracer::on_pfs_write(const void* fs, int file, std::uint64_t offset,
                          std::uint64_t len) {
  ++totals_.pfs_writes;
  totals_.pfs_bytes_written += len;
  inner_->on_pfs_write(fs, file, offset, len);
}

void Tracer::on_pfs_read(const void* fs, int file, std::uint64_t offset,
                         std::uint64_t len) {
  ++totals_.pfs_reads;
  totals_.pfs_bytes_read += len;
  inner_->on_pfs_read(fs, file, offset, len);
}

void Tracer::on_pfs_destroyed(const void* fs) { inner_->on_pfs_destroyed(fs); }

void Tracer::on_collective_begin(
    const void* fs, int file, bool is_write, int participants, int rank,
    std::span<const mcio::util::Extent> extents) {
  inner_->on_collective_begin(fs, file, is_write, participants, rank,
                              extents);
}

void Tracer::on_collective_end(const void* fs, int file, bool is_write,
                               int rank) {
  inner_->on_collective_end(fs, file, is_write, rank);
}

void Tracer::on_run_end() { inner_->on_run_end(); }

void Tracer::on_run_aborted() { inner_->on_run_aborted(); }

DriverTap::DriverTap(mcio::io::CollectiveDriver& inner, Tracer& tracer,
                     int nranks, std::string label, int parent)
    : inner_(inner),
      tracer_(tracer),
      nranks_(nranks),
      label_(std::move(label)),
      parent_(parent) {}

void DriverTap::write_all(mcio::io::CollContext& ctx,
                          const mcio::io::AccessPlan& plan) {
  const int actor = ctx.rank->actor().id();
  enter(actor);
  inner_.write_all(ctx, plan);
  leave(actor, "write");
}

void DriverTap::read_all(mcio::io::CollContext& ctx,
                         const mcio::io::AccessPlan& plan) {
  const int actor = ctx.rank->actor().id();
  enter(actor);
  inner_.read_all(ctx, plan);
  leave(actor, "read");
}

void DriverTap::enter(int actor) {
  if (entered_++ == 0) {
    start_s_ = host_now();
    driver_s0_ = tracer_.totals().driver_s;
  }
  tracer_.enter_driver(actor);
}

void DriverTap::leave(int actor, const char* op) {
  tracer_.leave_driver(actor);
  if (++left_ < nranks_) return;
  Span s;
  s.name = label_ + " " + op;
  s.parent = parent_;
  s.start_s = start_s_;
  s.end_s = host_now();
  s.busy_s = tracer_.totals().driver_s - driver_s0_;
  tracer_.add_span(std::move(s));
  entered_ = 0;
  left_ = 0;
}

mcio::util::Json spans_json(const std::vector<Span>& spans) {
  std::vector<double> child_s(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_s[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
    }
  }
  const double origin = spans.empty() ? 0.0 : spans.front().start_s;
  mcio::util::Json out = mcio::util::Json::array();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double dur = s.end_s - s.start_s;
    mcio::util::Json j = mcio::util::Json::object();
    j.set("id", static_cast<std::int64_t>(i))
        .set("name", s.name)
        .set("parent", s.parent)
        .set("start_s", s.start_s - origin)
        .set("dur_s", dur)
        .set("driver_slices_s", s.busy_s)
        .set("self_s", dur - child_s[i] - s.busy_s);
    out.push(std::move(j));
  }
  return out;
}

}  // namespace perfbench
