#include "mpi/comm.h"

#include <utility>

#include "mpi/machine.h"
#include "util/check.h"

namespace mcio::mpi {

Comm::Comm(Machine* machine, Rank* owner)
    : machine_(machine), owner_(owner), world_(machine->world_group()) {
  MCIO_CHECK_GE(rank(), 0);
  MCIO_CHECK_LT(rank(), size());
}

SharedPlan Comm::share_plan(
    std::uint64_t key,
    const std::function<std::shared_ptr<const void>()>& build) {
  return machine_->share_plan(coll_seq_, size(), key, build);
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

void Comm::send(int dst, int tag, util::ConstPayload data, Channel channel) {
  post(dst, tag, util::OwnedPayload(data), channel, /*framed=*/false);
}

void Comm::send_blob(int dst, int tag, std::span<const std::byte> blob,
                     Channel channel) {
  post(dst, tag,
       util::OwnedPayload(util::ConstPayload::real(
           blob.empty() ? nullptr : blob.data(), blob.size())),
       channel, /*framed=*/true);
}

void Comm::send_blob_shared(int dst, int tag, util::SharedBytes blob,
                            Channel channel) {
  post(dst, tag, util::OwnedPayload(std::move(blob)), channel,
       /*framed=*/true);
}

void Comm::post(int dst, int tag, util::OwnedPayload body, Channel channel,
                bool framed) {
  sim::Actor& actor = owner_->actor();
  const int src_node = node_of(rank());
  const int dst_node = node_of(dst);
  const bool shm = channel == Channel::kShm;
  if (shm) MCIO_CHECK_EQ(src_node, dst_node);
  const double overhead = shm ? machine_->config().shm_send_overhead
                              : machine_->config().send_overhead;
  const auto pass = [&](std::uint64_t bytes) {
    actor.sync_local();  // stamp the pass in virtual-time order
    const sim::SimTime arrival =
        shm ? machine_->shm_transfer(src_node, bytes, actor.now())
            : machine_->transfer(src_node, dst_node, bytes, actor.now());
    actor.advance(overhead);
    return arrival;
  };
  // A framed blob charges both passes of the historical two-message
  // protocol (size header, then body) so the simulated clock and resource
  // state are bit-identical, and is delivered as one framed envelope. A
  // receiver cannot tell which channel a message crossed: only the
  // charged resource differs. Delivery needs no sender clock, so it
  // follows the passes' overheads.
  const std::uint64_t size = body.size();
  Envelope env;
  env.src = rank();
  env.tag = tag;
  env.framed = framed;
  if (framed) env.header_arrival = pass(sizeof(size));
  env.arrival = framed && size == 0 ? env.header_arrival : pass(size);
  env.body = std::move(body);
  machine_->deliver(dst, std::move(env));
}

std::uint32_t Comm::post_recv(int src, int tag, util::Payload buf,
                             bool take) {
  // No yield: the k-th receive of a (dst, src, tag) FIFO takes the key's
  // k-th message whenever either side comes first.
  SlotPool& slots = machine_->slots();
  const std::uint32_t s = slots.add(RecvSlot{});
  RecvSlot& slot = slots[s];
  slot.src = src;
  slot.tag = tag;
  slot.buf = buf;
  slot.take = take;
  MatchTable& matches = machine_->matches();
  MatchTable::Cell& cell = matches.probe(
      MatchKey{static_cast<std::uint32_t>(rank()),
               static_cast<std::uint32_t>(src),
               static_cast<std::uint32_t>(tag)});
  if (cell.waits(MatchTable::kMessages)) {
    EnvelopeSlab& slab = machine_->envelopes();
    fulfill(slot, slab, matches.pop(cell, slab[cell.head].next));
  } else {
    if (cell.head != kNone) slots[cell.tail].next = s;
    MatchTable::append(cell, MatchTable::kReceives, s);
  }
  return s;
}

Request Comm::irecv(int src, int tag, util::Payload buf) {
  return Request(post_recv(src, tag, buf, /*take=*/false));
}

void Comm::recv(int src, int tag, util::Payload buf, Status* status) {
  Request r = irecv(src, tag, buf);
  wait(r, status);
}

void Comm::park_until_done(RecvSlot& slot) {
  sim::Actor& actor = owner_->actor();
  // A message that arrived by this rank's clock is in hand.
  if (slot.done && slot.status.arrival <= actor.now()) return;
  verify::Observer* obs = machine_->observer();
  obs->on_wait_begin(owner_->rank(), id(), slot.src, slot.tag);
  if (slot.done) {
    // Matched at send: the receive completes at the arrival whatever the
    // host order, so there is nothing to yield for.
    actor.advance_to(slot.status.arrival);
  } else {
    slot.parked = true;
    actor.park();  // the matching send wakes this rank at the arrival
  }
  obs->on_wait_end(owner_->rank());
}

void Comm::wait(Request& request, Status* status) {
  MCIO_CHECK_MSG(request.valid(), "wait on an invalid/consumed request");
  sim::Actor& actor = owner_->actor();
  SlotPool& slots = machine_->slots();
  RecvSlot& slot = slots[request.slot_];
  park_until_done(slot);
  actor.advance_to(slot.status.arrival);
  actor.advance(machine_->config().recv_overhead);
  if (status != nullptr) *status = slot.status;
  slots.release(std::exchange(request.slot_, kNone));
}

void Comm::waitall(std::span<Request> requests) {
  for (Request& r : requests) {
    if (r.valid()) wait(r);
  }
}

Envelope Comm::take_framed(int src, int tag) {
  const std::uint32_t s = post_recv(src, tag, util::Payload{}, /*take=*/true);
  SlotPool& slots = machine_->slots();
  park_until_done(slots[s]);
  const std::uint32_t p = slots[s].taken;
  slots.release(s);
  EnvelopeSlab& slab = machine_->envelopes();
  Envelope env = std::move(slab[p]);
  slab.release(p);
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

}  // namespace mcio::mpi
