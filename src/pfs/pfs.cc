#include "pfs/pfs.h"

#include <algorithm>

#include "util/check.h"

namespace mcio::pfs {

Pfs::Pfs(sim::Cluster& cluster, const PfsConfig& config)
    : cluster_(cluster),
      config_(config),
      observer_(verify::default_observer()) {
  MCIO_CHECK_GT(config_.num_osts, 0);
  MCIO_CHECK_GT(config_.stripe_unit, 0u);
  MCIO_CHECK_GT(config_.max_rpc_bytes, 0u);
  osts_.reserve(static_cast<std::size_t>(config_.num_osts));
  for (int i = 0; i < config_.num_osts; ++i) {
    osts_.push_back(Ost{sim::BandwidthQueue(config_.ost_write_bandwidth,
                                            config_.rpc_latency),
                        {}});
  }
}

Pfs::~Pfs() { observer_->on_pfs_destroyed(this); }

void Pfs::set_observer(verify::Observer* observer) {
  observer_ = verify::observer_or_noop(observer);
}

FileHandle Pfs::create(const std::string& path, int stripe_count) {
  if (stripe_count == 0) stripe_count = config_.default_stripe_count;
  if (stripe_count < 0) stripe_count = config_.num_osts;
  stripe_count = std::min(stripe_count, config_.num_osts);
  const auto it = by_path_.find(path);
  if (it != by_path_.end()) {
    FileState& f = state(it->second);
    f.stripe_count = stripe_count;
    f.size = 0;
    f.store.truncate();
    return it->second;
  }
  auto f = std::make_unique<FileState>();
  f->stripe_count = stripe_count;
  f->first_ost = next_first_ost_;
  next_first_ost_ = (next_first_ost_ + 1) % config_.num_osts;
  const auto fh = static_cast<FileHandle>(files_.size());
  files_.push_back(std::move(f));
  by_path_[path] = fh;
  return fh;
}

FileHandle Pfs::open(const std::string& path) {
  const auto it = by_path_.find(path);
  MCIO_CHECK_MSG(it != by_path_.end(), "no such file: " << path);
  return it->second;
}

bool Pfs::exists(const std::string& path) const {
  return by_path_.count(path) > 0;
}

void Pfs::remove(const std::string& path) {
  const auto it = by_path_.find(path);
  MCIO_CHECK_MSG(it != by_path_.end(), "no such file: " << path);
  state(it->second).store.truncate();
  state(it->second).size = 0;
  by_path_.erase(it);
}

std::uint64_t Pfs::file_size(FileHandle fh) const { return state(fh).size; }

int Pfs::stripe_count(FileHandle fh) const {
  return state(fh).stripe_count;
}

std::vector<Pfs::Rpc> Pfs::split_request(const FileState& f,
                                         std::uint64_t offset,
                                         std::uint64_t len) const {
  // Split at stripe boundaries and map each piece to its OST and object
  // offset, coalescing it into its OST's last RPC when the two are
  // object-contiguous (consecutive stripes of one request that land on
  // the same OST) and the sum stays within max_rpc_bytes.
  std::vector<Rpc> out;
  std::vector<std::size_t> tail_index(
      static_cast<std::size_t>(config_.num_osts), SIZE_MAX);
  const std::uint64_t unit = config_.stripe_unit;
  const auto count = static_cast<std::uint64_t>(f.stripe_count);
  std::uint64_t pos = offset;
  const std::uint64_t end = offset + len;
  while (pos < end) {
    const std::uint64_t stripe = pos / unit;
    const std::uint64_t in_stripe = pos % unit;
    const std::uint64_t n = std::min(unit - in_stripe, end - pos);
    pos += n;
    const auto ost = static_cast<int>(
        (static_cast<std::uint64_t>(f.first_ost) + stripe % count) %
        static_cast<std::uint64_t>(config_.num_osts));
    const std::uint64_t object_offset = (stripe / count) * unit + in_stripe;
    std::size_t& ti = tail_index[static_cast<std::size_t>(ost)];
    if (ti != SIZE_MAX && out[ti].object_offset + out[ti].bytes ==
                              object_offset &&
        out[ti].bytes + n <= config_.max_rpc_bytes) {
      out[ti].bytes += n;
    } else {
      ti = out.size();
      out.push_back(Rpc{ost, object_offset, n});
    }
  }
  return out;
}

sim::SimTime Pfs::serve_rpcs(FileHandle fh, const std::vector<Rpc>& rpcs,
                             bool is_write, int client_node,
                             sim::SimTime start, double client_bw_scale) {
  const double dir_scale =
      is_write ? 1.0
               : config_.ost_read_bandwidth / config_.ost_write_bandwidth;
  sim::SimTime done = start;
  for (const Rpc& rpc : rpcs) {
    Ost& ost = osts_[static_cast<std::size_t>(rpc.ost)];
    // Seek when this RPC does not continue where the last one on this
    // file/OST ended.
    sim::SimTime extra = 0.0;
    auto [it, inserted] = ost.last_end.try_emplace(fh, UINT64_MAX);
    if (it->second != rpc.object_offset) {
      extra = is_write || config_.read_seek_latency < 0.0
                  ? config_.seek_latency
                  : config_.read_seek_latency;
      ++seeks_;
    }
    it->second = rpc.object_offset + rpc.bytes;
    ++rpcs_;
    const auto fbytes = static_cast<double>(rpc.bytes);
    sim::SimTime t;
    if (is_write) {
      const sim::SimTime shipped = cluster_.nic_out(client_node)
                                       .serve(start, fbytes,
                                              client_bw_scale);
      t = ost.queue.serve(shipped, fbytes, dir_scale, extra);
    } else {
      const sim::SimTime served =
          ost.queue.serve(start, fbytes, dir_scale, extra);
      t = cluster_.nic_in(client_node)
              .serve(served, fbytes, client_bw_scale);
    }
    done = std::max(done, t);
  }
  return done;
}

void Pfs::write(sim::Actor& actor, FileHandle fh, std::uint64_t offset,
                util::ConstPayload data, double client_bw_scale) {
  if (data.size == 0) return;
  actor.sync();  // global virtual-time order for resource access
  FileState& f = state(fh);
  const auto rpcs = split_request(f, offset, data.size);
  const int client_node = cluster_.node_of_rank(actor.id());
  const sim::SimTime done =
      serve_rpcs(fh, rpcs, /*is_write=*/true, client_node, actor.now(),
                 client_bw_scale);
  if (config_.store_data) {
    f.store.write(offset, data);
  }
  f.size = std::max(f.size, offset + data.size);
  bytes_written_ += static_cast<double>(data.size);
  observer_->on_pfs_write(this, fh, offset, data.size);
  actor.advance_to(done);
}

void Pfs::read(sim::Actor& actor, FileHandle fh, std::uint64_t offset,
               util::Payload out, double client_bw_scale) {
  if (out.size == 0) return;
  actor.sync();
  FileState& f = state(fh);
  const auto rpcs = split_request(f, offset, out.size);
  const int client_node = cluster_.node_of_rank(actor.id());
  const sim::SimTime done =
      serve_rpcs(fh, rpcs, /*is_write=*/false, client_node, actor.now(),
                 client_bw_scale);
  if (config_.store_data) {
    f.store.read(offset, out);
  }
  observer_->on_pfs_read(this, fh, offset, out.size);
  actor.advance_to(done);
}

void Pfs::flush_locality() {
  for (Ost& ost : osts_) ost.last_end.clear();
}

void Pfs::reset_accounting() {
  bytes_written_ = 0.0;
  rpcs_ = 0;
  seeks_ = 0;
  for (Ost& ost : osts_) ost.queue.reset_accounting();
}

const Store& Pfs::store(FileHandle fh) const { return state(fh).store; }

std::uint64_t Pfs::content_hash(FileHandle fh) const {
  return state(fh).store.content_hash();
}

Pfs::FileState& Pfs::state(FileHandle fh) {
  MCIO_CHECK_GE(fh, 0);
  MCIO_CHECK_LT(static_cast<std::size_t>(fh), files_.size());
  return *files_[static_cast<std::size_t>(fh)];
}

const Pfs::FileState& Pfs::state(FileHandle fh) const {
  MCIO_CHECK_GE(fh, 0);
  MCIO_CHECK_LT(static_cast<std::size_t>(fh), files_.size());
  return *files_[static_cast<std::size_t>(fh)];
}

}  // namespace mcio::pfs
