#include "mpi/comm.h"

#include <algorithm>

#include "mpi/machine.h"
#include "util/check.h"

namespace mcio::mpi {

Comm::Comm(Machine* machine, Rank* owner,
           std::shared_ptr<const std::vector<int>> members, int my_index,
           std::uint64_t comm_id)
    : machine_(machine),
      owner_(owner),
      members_(std::move(members)),
      my_index_(my_index),
      comm_id_(comm_id) {
  MCIO_CHECK_GE(my_index_, 0);
  MCIO_CHECK_LT(my_index_, size());
  MCIO_CHECK_EQ((*members_)[static_cast<std::size_t>(my_index_)],
                owner_->rank());
}

int Comm::node_of(int crank) const {
  return machine_->cluster().node_of_rank(world_rank(crank));
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
  sim::Actor& actor = owner_->actor();
  const int wdst = world_rank(dst);
  const std::uint64_t size = blob.size();
  // Charge both transport passes of the historical two-message protocol
  // (size header, then body) so the simulated clock and resource state
  // are bit-identical; deliver the result as a single framed envelope.
  actor.sync_local();
  const sim::SimTime header_arrival = machine_->transfer(
      node_of(rank()), node_of(dst), sizeof(size), actor.now());
  actor.advance(machine_->config().send_overhead);
  sim::SimTime arrival = header_arrival;
  if (size > 0) {
    actor.sync_local();
    arrival =
        machine_->transfer(node_of(rank()), node_of(dst), size, actor.now());
    actor.advance(machine_->config().send_overhead);
  }
  Envelope env;
  env.comm_id = comm_id_;
  env.src = rank();
  env.tag = tag;
  env.body = util::OwnedPayload(
      util::ConstPayload::real(size > 0 ? blob.data() : nullptr, size));
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

void Comm::send_blob_shm(int dst, int tag, std::span<const std::byte> blob) {
  sim::Actor& actor = owner_->actor();
  const int wdst = world_rank(dst);
  const int node = node_of(rank());
  MCIO_CHECK_EQ(node, node_of(dst));
  const std::uint64_t size = blob.size();
  // Same two-pass framing as send_blob (header then body) so a receiver
  // cannot tell which channel a blob crossed — only the charged resource
  // differs.
  actor.sync_local();
  const sim::SimTime header_arrival =
      machine_->shm_transfer(node, sizeof(size), actor.now());
  actor.advance(machine_->config().shm_send_overhead);
  sim::SimTime arrival = header_arrival;
  if (size > 0) {
    actor.sync_local();
    arrival = machine_->shm_transfer(node, size, actor.now());
    actor.advance(machine_->config().shm_send_overhead);
  }
  Envelope env;
  env.comm_id = comm_id_;
  env.src = rank();
  env.tag = tag;
  env.body = util::OwnedPayload(
      util::ConstPayload::real(size > 0 ? blob.data() : nullptr, size));
  env.framed = true;
  env.header_arrival = header_arrival;
  env.arrival = arrival;
  machine_->deliver(wdst, std::move(env));
}

FramedBlob Comm::recv_blob_deferred(int src, int tag) {
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
  Envelope& env = slot->taken;
  FramedBlob out;
  out.source = env.src;
  out.tag = env.tag;
  out.header_arrival = env.header_arrival;
  out.arrival = env.arrival;
  out.bytes = env.body.release();
  ep.release_slot(std::move(slot));
  return out;
}

void Comm::charge_blob(const FramedBlob& b, Status* status) {
  sim::Actor& actor = owner_->actor();
  // Replay of the two-message receive: header charge, then body charge
  // when the blob is non-empty (an empty blob was header-only).
  actor.advance_to(b.header_arrival);
  actor.advance(machine_->config().recv_overhead);
  Status st{b.source, b.tag, sizeof(std::uint64_t), b.header_arrival};
  if (!b.bytes.empty()) {
    actor.advance_to(b.arrival);
    actor.advance(machine_->config().recv_overhead);
    st.arrival = b.arrival;
    st.bytes = b.bytes.size();
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
  for (const Item& it : items) {
    if (it.color == color) mine.push_back(it);
  }
  std::sort(mine.begin(), mine.end(), [](const Item& a, const Item& b) {
    return a.key != b.key ? a.key < b.key : a.wrank < b.wrank;
  });
  auto members = std::make_shared<std::vector<int>>();
  int my_index = -1;
  for (const Item& it : mine) {
    if (it.wrank == owner_->rank()) {
      my_index = static_cast<int>(members->size());
    }
    members->push_back(it.wrank);
  }
  MCIO_CHECK_GE(my_index, 0);
  const std::uint64_t id = machine_->intern_group(*members);
  return Comm(machine_, owner_, std::move(members), my_index, id);
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
  return Comm(machine_, owner_, members_, my_index_, id);
}

}  // namespace mcio::mpi
