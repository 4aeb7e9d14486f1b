// Collective algorithms (binomial trees and dissemination), modelled on
// the MPICH implementations that back ROMIO. The allgather family runs
// one node-leader tree: intra-node legs cross the shm channel into each
// group's lowest rank, only leaders run the binomial step, and results
// fan back out over shm. With `hier` a group is a node, so the NIC sees
// O(nodes) messages instead of O(ranks); without it every rank is its
// own group, which is exactly the flat binomial tree.
#include <algorithm>
#include <cstring>

#include "mpi/comm.h"
#include "mpi/machine.h"
#include "util/check.h"

namespace mcio::mpi {

namespace {

// Gathers carry a flat wire bundle: u64 count, then per item u64 rank,
// u64 length, raw bytes. The bundle stays flat through every tree stage —
// splicing a child's items is one memcpy — and is parsed exactly once at
// the consumer, instead of exploding into per-item vectors at every hop.
std::uint64_t read_u64(const std::vector<std::byte>& in, std::size_t& pos) {
  MCIO_CHECK_LE(pos + sizeof(std::uint64_t), in.size());
  std::uint64_t v = 0;
  std::memcpy(&v, in.data() + pos, sizeof(v));
  pos += sizeof(v);
  return v;
}

void write_u64_at(std::vector<std::byte>& out, std::size_t pos,
                  std::uint64_t v) {
  std::memcpy(out.data() + pos, &v, sizeof(v));
}

/// A bundle holding one item: `rank`'s bytes.
std::vector<std::byte> bundle_of(int rank, std::span<const std::byte> mine) {
  std::vector<std::byte> acc(3 * sizeof(std::uint64_t) + mine.size());
  write_u64_at(acc, 0, 1);
  write_u64_at(acc, 8, static_cast<std::uint64_t>(rank));
  write_u64_at(acc, 16, mine.size());
  if (!mine.empty()) std::memcpy(acc.data() + 24, mine.data(), mine.size());
  return acc;
}

/// Appends `child`'s items to `acc` and adds its count to acc's.
void splice(std::vector<std::byte>& acc, const std::vector<std::byte>& child) {
  std::size_t pos = 0;
  const std::uint64_t n = read_u64(child, pos);
  std::size_t head = 0;
  const std::uint64_t count = read_u64(acc, head) + n;
  acc.insert(acc.end(), child.begin() + static_cast<std::ptrdiff_t>(pos),
             child.end());
  write_u64_at(acc, 0, count);
}

}  // namespace

void Comm::barrier() {
  const int tag = next_coll_tag();
  const int p = size();
  std::byte token{};
  for (int k = 1; k < p; k <<= 1) {
    const int to = (rank() + k) % p;
    const int from = (rank() - k % p + p) % p;
    Request r = irecv(from, tag, util::Payload::real(&token, 0));
    send(to, tag, util::ConstPayload::real(&token, 0));
    wait(r);
  }
}

template <typename RankOf>
std::vector<std::byte> Comm::tree_gather_wire(int tag, int n, int me,
                                              const RankOf& rank_of,
                                              std::vector<std::byte> acc) {
  for (int mask = 1; mask < n; mask <<= 1) {
    if ((me & mask) != 0) {
      send_blob(rank_of(me & ~mask), tag, acc);
      acc.clear();
      break;
    }
    if ((me | mask) < n) splice(acc, recv_blob(rank_of(me | mask), tag));
  }
  return acc;  // full bundle at participant 0, empty elsewhere
}

void Comm::parse_wire(const std::vector<std::byte>& wire,
                      std::uint64_t elem_size, std::byte* out) const {
  std::size_t pos = 0;
  const std::uint64_t count = read_u64(wire, pos);
  MCIO_CHECK_EQ(count, static_cast<std::uint64_t>(size()));
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t r = read_u64(wire, pos);
    const std::uint64_t len = read_u64(wire, pos);
    MCIO_CHECK_LT(r, count);
    MCIO_CHECK_EQ(len, elem_size);
    MCIO_CHECK_LE(pos + len, wire.size());
    std::memcpy(out + r * elem_size, wire.data() + pos, len);
    pos += len;
  }
}

template <typename RankOf>
void Comm::tree_bcast_blob(int tag, int n, int me, const RankOf& rank_of,
                           util::SharedBytes& blob) {
  int mask = 1;
  for (; mask < n; mask <<= 1) {
    if ((me & mask) != 0) {
      blob = recv_blob_shared(rank_of(me - mask), tag);
      break;
    }
  }
  for (mask >>= 1; mask > 0; mask >>= 1) {
    if (me + mask < n) send_blob_shared(rank_of(me + mask), tag, blob);
  }
}

util::SharedBytes Comm::seal_wire(std::vector<std::byte> wire,
                                  WireDecoder decode) const {
  auto sealed = std::make_shared<util::SharedBuffer>();
  if (decode != nullptr) sealed->decoded = decode(*this, wire);
  sealed->bytes = std::move(wire);
  return sealed;
}

util::SharedBytes Comm::allgather_wire(std::span<const std::byte> mine,
                                       WireDecoder decode, bool hier) {
  // Members push their items up to their leader; the leaders gather the
  // flat bundle at the first leader, which decodes it once, and broadcast
  // it verbatim; leaders fan it back out. Every hop and the fan-out
  // forward the one shared buffer, so every rank receives the same
  // buffer and the same decoded form. The bundle lists items in
  // tree-arrival order rather than rank order; consumers index by the
  // rank key. Only `hier` has member legs, so only it reserves their
  // tags.
  const int t_up = hier ? next_coll_tag() : 0;
  const int t_gather = next_coll_tag();
  const int t_bcast = next_coll_tag();
  const int t_down = hier ? next_coll_tag() : 0;
  const int me = rank();
  // This rank's group, and the group's index among the leaders.
  const int li =
      hier ? world_->node_group_of[static_cast<std::size_t>(me)] : me;
  const std::span<const int> my_group =
      hier ? std::span<const int>(
                 world_->node_groups[static_cast<std::size_t>(li)])
           : std::span<const int>(&me, 1);
  const int leader = my_group.front();
  std::vector<std::byte> acc = bundle_of(me, mine);

  if (me != leader) {
    send_blob(leader, t_up, acc, Channel::kShm);
    return recv_blob_shared(leader, t_down);
  }
  for (const int m : my_group.subspan(1)) {
    splice(acc, recv_blob(m, t_up));
  }
  const std::vector<int>& leaders = world_->node_leaders;
  const int nl = hier ? static_cast<int>(leaders.size()) : size();
  const auto leader_of = [&](int i) {
    return hier ? leaders[static_cast<std::size_t>(i)] : i;
  };
  acc = tree_gather_wire(t_gather, nl, li, leader_of, std::move(acc));
  util::SharedBytes wire;
  if (li == 0) wire = seal_wire(std::move(acc), decode);
  tree_bcast_blob(t_bcast, nl, li, leader_of, wire);
  for (const int m : my_group.subspan(1)) {
    send_blob_shared(m, t_down, wire, Channel::kShm);
  }
  return wire;
}

std::shared_ptr<const void> Comm::decode_max(
    const Comm& comm, const std::vector<std::byte>& wire) {
  std::vector<double> all(static_cast<std::size_t>(comm.size()));
  comm.parse_wire(wire, sizeof(double),
                  reinterpret_cast<std::byte*>(all.data()));
  comm.machine_->count_reduce_pass();
  return std::make_shared<const double>(
      *std::max_element(all.begin(), all.end()));
}

std::shared_ptr<const void> Comm::decode_sum(
    const Comm& comm, const std::vector<std::byte>& wire) {
  std::vector<double> all(static_cast<std::size_t>(comm.size()));
  comm.parse_wire(wire, sizeof(double),
                  reinterpret_cast<std::byte*>(all.data()));
  comm.machine_->count_reduce_pass();
  double s = 0.0;
  for (const double x : all) s += x;  // rank order: bit-stable doubles
  return std::make_shared<const double>(s);
}

namespace {

std::span<const std::byte> bytes_of(const double& v) {
  return {reinterpret_cast<const std::byte*>(&v), sizeof(v)};
}

double shared_scalar(const util::SharedBytes& wire) {
  return *std::static_pointer_cast<const double>(wire->decoded);
}

}  // namespace

double Comm::allreduce_max(double v, bool hier) {
  return shared_scalar(allgather_wire(bytes_of(v), &decode_max, hier));
}

double Comm::allreduce_sum(double v) {
  return shared_scalar(allgather_wire(bytes_of(v), &decode_sum, false));
}

}  // namespace mcio::mpi
