#include "mpi/comm.h"

#include <algorithm>

#include "mpi/machine.h"
#include "util/check.h"

namespace mcio::mpi {

Comm::Comm(Machine* machine, Rank* owner, std::shared_ptr<const Group> group,
           int my_index, std::uint64_t comm_id)
    : machine_(machine),
      owner_(owner),
      group_(std::move(group)),
      my_index_(my_index),
      comm_id_(comm_id) {
  MCIO_CHECK_GE(my_index_, 0);
  MCIO_CHECK_LT(my_index_, size());
  MCIO_CHECK_EQ(group_->members[static_cast<std::size_t>(my_index_)],
                owner_->rank());
}

SharedPlan Comm::share_plan(
    std::uint64_t key,
    const std::function<std::shared_ptr<const void>()>& build) {
  return machine_->share_plan(comm_id_, coll_seq_, size(), key, build);
}

Endpoint& Comm::my_endpoint() {
  return machine_->endpoint(owner_->rank());
}

int Comm::next_coll_tag() {
  return static_cast<int>(0x20000000u +
                          static_cast<std::uint32_t>(coll_seq_++ &
                                                     0x0fffffffu));
}

int Comm::reserve_tags(int n) {
  MCIO_CHECK_GT(n, 0);
  constexpr std::uint64_t kTagSpace = 1ull << 28;
  MCIO_CHECK_MSG(static_cast<std::uint64_t>(n) <= kTagSpace,
                 "cannot reserve " << n << " tags from a " << kTagSpace
                                   << "-tag collective space");
  // A block must stay contiguous inside the 28-bit collective-tag window:
  // wrapping mid-block would alias tags still live in an earlier range
  // (seen at high file-domain counts). Skip to the next window instead.
  // Deterministic, so every rank skips identically.
  const std::uint64_t used = coll_seq_ & (kTagSpace - 1);
  if (used + static_cast<std::uint64_t>(n) > kTagSpace) {
    coll_seq_ += kTagSpace - used;
  }
  const int base = next_coll_tag();
  coll_seq_ += static_cast<std::uint64_t>(n - 1);
  return base;
}

void Comm::send(int dst, int tag, util::ConstPayload data) {
  sim::Actor& actor = owner_->actor();
  actor.sync_local();  // stamp the send in virtual-time order
  const int wdst = world_rank(dst);
  Envelope env;
  env.comm_id = comm_id_;
  env.src = rank();
  env.tag = tag;
  env.body = util::OwnedPayload(data);
  env.arrival = machine_->transfer(node_of(rank()), node_of(dst), data.size,
                                   actor.now());
  machine_->deliver(wdst, std::move(env));
  actor.advance(machine_->config().send_overhead);
}

Request Comm::isend(int dst, int tag, util::ConstPayload data) {
  // Buffered-eager transport: the send buffer is copied at post time, so
  // the request is already complete locally.
  send(dst, tag, data);
  Request r;
  r.send_ = true;
  return r;
}

Request Comm::irecv(int src, int tag, util::Payload buf) {
  sim::Actor& actor = owner_->actor();
  actor.sync_local();
  Endpoint& ep = my_endpoint();
  auto slot = ep.acquire_slot();
  slot->comm_id = comm_id_;
  slot->src = src;
  slot->tag = tag;
  slot->buf = buf;
  if (auto env = ep.take_unexpected(comm_id_, src, tag)) {
    fulfill(*slot, std::move(*env));
  } else {
    ep.post(slot);
  }
  Request r;
  r.slot_ = std::move(slot);
  return r;
}

void Comm::recv(int src, int tag, util::Payload buf, Status* status) {
  Request r = irecv(src, tag, buf);
  wait(r, status);
}

void Comm::wait(Request& request, Status* status) {
  MCIO_CHECK_MSG(request.valid(), "wait on an invalid/consumed request");
  if (request.send_) {
    request.send_ = false;
    return;
  }
  sim::Actor& actor = owner_->actor();
  Endpoint& ep = my_endpoint();
  if (!request.slot_->done) {
    // Audited park: the observer is told what this fiber blocks on so a
    // deadlock report can name the missing message (see DESIGN.md §8).
    verify::Observer* obs = machine_->observer();
    const int wsrc = request.slot_->src == kAnySource
                         ? kAnySource
                         : world_rank(request.slot_->src);
    obs->on_wait_begin(owner_->rank(), comm_id_, wsrc, request.slot_->tag);
    while (!request.slot_->done) {
      ++ep.waiting;
      actor.park();
      --ep.waiting;
    }
    obs->on_wait_end(owner_->rank());
  }
  actor.advance_to(request.slot_->status.arrival);
  actor.advance(machine_->config().recv_overhead);
  if (status != nullptr) *status = request.slot_->status;
  ep.release_slot(std::move(request.slot_));
  request.slot_.reset();
}

void Comm::waitall(std::span<Request> requests) {
  for (Request& r : requests) {
    if (r.valid()) wait(r);
  }
}

bool Comm::test(const Request& request) const {
  if (request.send_) return true;
  return request.slot_ == nullptr || request.slot_->done;
}

void Comm::send_blob(int dst, int tag, std::span<const std::byte> blob) {
  send_framed(dst, tag,
              util::OwnedPayload(util::ConstPayload::real(
                  blob.empty() ? nullptr : blob.data(), blob.size())),
              /*shm=*/false);
}

void Comm::send_blob_shared(int dst, int tag, util::SharedBytes blob) {
  send_framed(dst, tag, util::OwnedPayload(std::move(blob)), /*shm=*/false);
}

void Comm::send_blob_shm(int dst, int tag, std::span<const std::byte> blob) {
  send_framed(dst, tag,
              util::OwnedPayload(util::ConstPayload::real(
                  blob.empty() ? nullptr : blob.data(), blob.size())),
              /*shm=*/true);
}

void Comm::send_blob_shm_shared(int dst, int tag, util::SharedBytes blob) {
  send_framed(dst, tag, util::OwnedPayload(std::move(blob)), /*shm=*/true);
}

void Comm::send_framed(int dst, int tag, util::OwnedPayload body, bool shm) {
  sim::Actor& actor = owner_->actor();
  const int wdst = world_rank(dst);
  const int src_node = node_of(rank());
  const int dst_node = node_of(dst);
  if (shm) MCIO_CHECK_EQ(src_node, dst_node);
  const double overhead = shm ? machine_->config().shm_send_overhead
                              : machine_->config().send_overhead;
  const auto pass = [&](std::uint64_t bytes) {
    actor.sync_local();
    const sim::SimTime arrival =
        shm ? machine_->shm_transfer(src_node, bytes, actor.now())
            : machine_->transfer(src_node, dst_node, bytes, actor.now());
    actor.advance(overhead);
    return arrival;
  };
  const std::uint64_t size = body.size();
  // Charge both transport passes of the historical two-message protocol
  // (size header, then body) so the simulated clock and resource state
  // are bit-identical; deliver the result as a single framed envelope. A
  // receiver cannot tell which channel a blob crossed — only the charged
  // resource differs.
  const sim::SimTime header_arrival = pass(sizeof(size));
  const sim::SimTime arrival = size > 0 ? pass(size) : header_arrival;
  Envelope env;
  env.comm_id = comm_id_;
  env.src = rank();
  env.tag = tag;
  env.body = std::move(body);
  env.framed = true;
  env.header_arrival = header_arrival;
  env.arrival = arrival;
  machine_->deliver(wdst, std::move(env));
}

void Comm::send_shm(int dst, int tag, util::ConstPayload data) {
  sim::Actor& actor = owner_->actor();
  actor.sync_local();
  const int wdst = world_rank(dst);
  const int node = node_of(rank());
  MCIO_CHECK_EQ(node, node_of(dst));
  const sim::SimTime arrival =
      machine_->shm_transfer(node, data.size, actor.now());
  actor.advance(machine_->config().shm_send_overhead);
  Envelope env;
  env.comm_id = comm_id_;
  env.src = rank();
  env.tag = tag;
  env.body = util::OwnedPayload(data);
  env.arrival = arrival;
  machine_->deliver(wdst, std::move(env));
}

Envelope Comm::take_framed(int src, int tag) {
  sim::Actor& actor = owner_->actor();
  actor.sync_local();
  Endpoint& ep = my_endpoint();
  auto slot = ep.acquire_slot();
  slot->comm_id = comm_id_;
  slot->src = src;
  slot->tag = tag;
  slot->buf = util::Payload{};
  slot->take = true;
  if (auto env = ep.take_unexpected(comm_id_, src, tag)) {
    fulfill(*slot, std::move(*env));
  } else {
    ep.post(slot);
    // Audited park (see DESIGN.md §8).
    verify::Observer* obs = machine_->observer();
    const int wsrc = src == kAnySource ? kAnySource : world_rank(src);
    obs->on_wait_begin(owner_->rank(), comm_id_, wsrc, tag);
    while (!slot->done) {
      ++ep.waiting;
      actor.park();
      --ep.waiting;
    }
    obs->on_wait_end(owner_->rank());
  }
  Envelope env = std::move(slot->taken);
  ep.release_slot(std::move(slot));
  return env;
}

FramedBlob Comm::recv_blob_deferred(int src, int tag) {
  Envelope env = take_framed(src, tag);
  return FramedBlob{env.src, env.tag, env.body.release(), env.header_arrival,
                    env.arrival};
}

util::SharedBytes Comm::recv_blob_shared(int src, int tag) {
  Envelope env = take_framed(src, tag);
  util::SharedBytes blob = env.body.share();
  charge_framed(FramedBlob{env.src, env.tag, {}, env.header_arrival,
                           env.arrival},
                blob->bytes.size(), nullptr);
  return blob;
}

void Comm::charge_blob(const FramedBlob& b, Status* status) {
  charge_framed(b, b.bytes.size(), status);
}

void Comm::charge_framed(const FramedBlob& b, std::uint64_t size,
                         Status* status) {
  sim::Actor& actor = owner_->actor();
  // Replay of the two-message receive: header charge, then body charge
  // when the blob is non-empty (an empty blob was header-only).
  actor.advance_to(b.header_arrival);
  actor.advance(machine_->config().recv_overhead);
  Status st{b.source, b.tag, sizeof(std::uint64_t), b.header_arrival};
  if (size > 0) {
    actor.advance_to(b.arrival);
    actor.advance(machine_->config().recv_overhead);
    st.arrival = b.arrival;
    st.bytes = size;
  }
  if (status != nullptr) *status = st;
}

std::vector<std::byte> Comm::recv_blob(int src, int tag, Status* status) {
  FramedBlob b = recv_blob_deferred(src, tag);
  charge_blob(b, status);
  return std::move(b.bytes);
}

Comm Comm::split(int color, int key) {
  MCIO_CHECK_GE(color, 0);
  struct Item {
    int color;
    int key;
    int wrank;
  };
  const auto items = allgather(Item{color, key, owner_->rank()});
  std::vector<Item> mine;
  for (const Item& it : *items) {
    if (it.color == color) mine.push_back(it);
  }
  std::sort(mine.begin(), mine.end(), [](const Item& a, const Item& b) {
    return a.key != b.key ? a.key < b.key : a.wrank < b.wrank;
  });
  std::vector<int> members;
  members.reserve(mine.size());
  int my_index = -1;
  for (const Item& it : mine) {
    if (it.wrank == owner_->rank()) {
      my_index = static_cast<int>(members.size());
    }
    members.push_back(it.wrank);
  }
  MCIO_CHECK_GE(my_index, 0);
  std::shared_ptr<const Group> group =
      machine_->intern_group(std::move(members));
  const std::uint64_t id = group->id;
  return Comm(machine_, owner_, std::move(group), my_index, id);
}

Comm Comm::dup() {
  // Collective: rank 0 draws a fresh id (distinct from any interned group
  // id thanks to the high bit) and broadcasts it.
  std::uint64_t id = 0;
  if (rank() == 0) {
    static_assert(sizeof(std::uint64_t) == 8);
    id = (1ull << 63) | (comm_id_ << 20) | (coll_seq_ & 0xfffffu);
  }
  bcast(id, 0);
  return Comm(machine_, owner_, group_, my_index_, id);
}

}  // namespace mcio::mpi
