#include "io/mpi_file.h"

#include "io/independent.h"
#include "mpi/machine.h"
#include "util/check.h"

namespace mcio::io {

MPIFile::MPIFile(mpi::Rank& rank, mpi::Comm& comm, Services services,
                 const std::string& path, bool create, Hints hints,
                 CollectiveDriver* driver) {
  MCIO_CHECK(services.fs != nullptr);
  MCIO_CHECK(services.memory != nullptr);
  ctx_.rank = &rank;
  ctx_.comm = &comm;
  ctx_.fs = services.fs;
  ctx_.memory = services.memory;
  ctx_.hints = hints;
  driver_ = driver != nullptr ? driver : &default_driver_;
  // Collective open: rank 0 creates, everyone opens after the barrier.
  if (comm.rank() == 0 && create) {
    ctx_.file = services.fs->create(path);
  }
  comm.barrier();
  ctx_.file = services.fs->open(path);
}

void MPIFile::set_view(std::uint64_t disp, mpi::Datatype filetype) {
  MCIO_CHECK_GT(filetype.size(), 0u);
  view_disp_ = disp;
  view_type_ = std::make_unique<mpi::Datatype>(std::move(filetype));
  view_consumed_ = 0;
}

AccessPlan MPIFile::plan_through_view(util::Payload buffer) const {
  MCIO_CHECK_MSG(view_type_ != nullptr,
                 "write_all/read_all require set_view first");
  // Flatten enough of the tiled view for all consumed + new data, then
  // drop the already-consumed prefix.
  auto extents = view_type_->flatten_bytes(view_disp_,
                                           view_consumed_ + buffer.size);
  std::uint64_t to_drop = view_consumed_;
  std::vector<util::Extent> rest;
  rest.reserve(extents.size());
  for (const util::Extent& e : extents) {
    if (to_drop >= e.len) {
      to_drop -= e.len;
      continue;
    }
    rest.push_back(util::Extent{e.offset + to_drop, e.len - to_drop});
    to_drop = 0;
  }
  return AccessPlan(util::ExtentList::normalize(std::move(rest)), buffer);
}

void MPIFile::write_all(util::ConstPayload data) {
  // The buffer is only read on the write path; AccessPlan carries a
  // mutable payload for symmetry with reads.
  const AccessPlan plan = plan_through_view(
      util::Payload{const_cast<std::byte*>(data.data), data.size});
  write_all_plan(plan);
  view_consumed_ += data.size;
}

void MPIFile::read_all(util::Payload data) {
  const AccessPlan plan = plan_through_view(data);
  read_all_plan(plan);
  view_consumed_ += data.size;
}

void MPIFile::write_all_plan(const AccessPlan& plan) {
  // Collective epoch brackets: the auditor checks byte conservation and
  // lease balance between begin and end (DESIGN.md §8).
  verify::Observer* obs = ctx_.rank->machine().observer();
  obs->on_collective_begin(ctx_.fs, ctx_.file, /*is_write=*/true,
                           ctx_.comm->size(), ctx_.rank->rank(),
                           plan.extents.runs());
  driver_->write_all(ctx_, plan);
  obs->on_collective_end(ctx_.fs, ctx_.file, /*is_write=*/true,
                         ctx_.rank->rank());
}

void MPIFile::read_all_plan(const AccessPlan& plan) {
  verify::Observer* obs = ctx_.rank->machine().observer();
  obs->on_collective_begin(ctx_.fs, ctx_.file, /*is_write=*/false,
                           ctx_.comm->size(), ctx_.rank->rank(),
                           plan.extents.runs());
  driver_->read_all(ctx_, plan);
  obs->on_collective_end(ctx_.fs, ctx_.file, /*is_write=*/false,
                         ctx_.rank->rank());
}

void MPIFile::write_at(std::uint64_t offset, util::ConstPayload data) {
  if (data.size == 0) return;
  const util::Payload buffer{const_cast<std::byte*>(data.data), data.size};
  independent_write(
      ctx_, AccessPlan(util::ExtentList::normalize({{offset, data.size}}),
                       buffer));
}

void MPIFile::read_at(std::uint64_t offset, util::Payload data) {
  if (data.size == 0) return;
  independent_read(
      ctx_, AccessPlan(util::ExtentList::normalize({{offset, data.size}}),
                       data));
}

std::uint64_t MPIFile::size() const { return ctx_.fs->file_size(ctx_.file); }

}  // namespace mcio::io
