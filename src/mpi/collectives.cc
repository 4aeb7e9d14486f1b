// Collective algorithms (binomial trees and dissemination), modelled on
// the MPICH implementations that back ROMIO. The *_hier variants add a
// node-leader level: intra-node legs cross the shm channel into the
// node's lowest rank, only leaders run the inter-node binomial step, and
// results fan back out over shm — O(nodes) NIC messages instead of
// O(ranks).
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

std::vector<std::byte> Comm::tree_gather_wire(
    int tag, int root, std::span<const std::byte> mine) {
  const int p = size();
  const int relative = (rank() - root + p) % p;
  std::vector<std::byte> acc(3 * sizeof(std::uint64_t) + mine.size());
  write_u64_at(acc, 0, 1);
  write_u64_at(acc, 8, static_cast<std::uint64_t>(rank()));
  write_u64_at(acc, 16, mine.size());
  if (!mine.empty()) std::memcpy(acc.data() + 24, mine.data(), mine.size());
  std::uint64_t count = 1;
  int mask = 1;
  while (mask < p) {
    if ((relative & mask) == 0) {
      const int src_rel = relative | mask;
      if (src_rel < p) {
        const int src = (src_rel + root) % p;
        const auto child = recv_blob(src, tag);
        std::size_t pos = 0;
        count += read_u64(child, pos);
        acc.insert(acc.end(), child.begin() + static_cast<std::ptrdiff_t>(pos),
                   child.end());
        write_u64_at(acc, 0, count);
      }
    } else {
      const int dst = ((relative & ~mask) + root) % p;
      send_blob(dst, tag, acc);
      acc.clear();
      break;
    }
    mask <<= 1;
  }
  return acc;  // full bundle at root, empty elsewhere
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

void Comm::tree_bcast_blob(int tag, int root, util::SharedBytes& blob) {
  const int p = size();
  const int relative = (rank() - root + p) % p;
  int mask = 1;
  while (mask < p) {
    if (relative & mask) {
      const int src = (relative - mask + root) % p;
      blob = recv_blob_shared(src, tag);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (relative + mask < p) {
      const int dst = (relative + mask + root) % p;
      send_blob_shared(dst, tag, blob);
    }
    mask >>= 1;
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
                                       WireDecoder decode) {
  // Gather the flat bundle at rank 0, then broadcast it verbatim. The
  // bundle lists items in tree-arrival order rather than rank order (the
  // historical broadcast repacked by rank); consumers index by the rank
  // key and the byte count on every hop is unchanged, so neither results
  // nor simulated timing can tell the difference. The root decodes the
  // bundle once, before sharing it: every rank receives the same buffer
  // and the same decoded form.
  const int t_gather = next_coll_tag();
  const int t_bcast = next_coll_tag();
  auto acc = tree_gather_wire(t_gather, 0, mine);
  util::SharedBytes wire;
  if (rank() == 0) wire = seal_wire(std::move(acc), decode);
  tree_bcast_blob(t_bcast, 0, wire);
  return wire;
}

util::SharedBytes Comm::allgather_wire_hier(std::span<const std::byte> mine,
                                            WireDecoder decode) {
  const auto& groups = group_->node_groups;
  const int t_up = next_coll_tag();
  const int t_gather = next_coll_tag();
  const int t_bcast = next_coll_tag();
  const int t_down = next_coll_tag();
  const auto my_li = static_cast<std::size_t>(
      group_->node_group_of[static_cast<std::size_t>(rank())]);
  const std::vector<int>& my_group = groups[my_li];
  const int leader = my_group.front();

  std::vector<std::byte> acc(3 * sizeof(std::uint64_t) + mine.size());
  write_u64_at(acc, 0, 1);
  write_u64_at(acc, 8, static_cast<std::uint64_t>(rank()));
  write_u64_at(acc, 16, mine.size());
  if (!mine.empty()) std::memcpy(acc.data() + 24, mine.data(), mine.size());

  if (rank() != leader) {
    // Member: push my item up, then take the full bundle back down.
    send_blob_shm(leader, t_up, acc);
    return recv_blob_shared(leader, t_down);
  }

  // Leader: splice every member item into the node bundle.
  std::uint64_t count = 1;
  for (const int m : my_group) {
    if (m == leader) continue;
    const auto child = recv_blob(m, t_up);
    std::size_t pos = 0;
    count += read_u64(child, pos);
    acc.insert(acc.end(), child.begin() + static_cast<std::ptrdiff_t>(pos),
               child.end());
  }
  write_u64_at(acc, 0, count);

  // Inter-node binomial gather at the first leader.
  const int nl = static_cast<int>(groups.size());
  const int li = static_cast<int>(my_li);
  int mask = 1;
  while (mask < nl) {
    if ((li & mask) == 0) {
      const int src_li = li | mask;
      if (src_li < nl) {
        const auto child = recv_blob(
            groups[static_cast<std::size_t>(src_li)].front(), t_gather);
        std::size_t pos = 0;
        count += read_u64(child, pos);
        acc.insert(acc.end(),
                   child.begin() + static_cast<std::ptrdiff_t>(pos),
                   child.end());
        write_u64_at(acc, 0, count);
      }
    } else {
      send_blob(groups[static_cast<std::size_t>(li & ~mask)].front(),
                t_gather, acc);
      acc.clear();
      break;
    }
    mask <<= 1;
  }

  // Binomial bcast of the full bundle across leaders (rooted at leader 0,
  // which decodes it once); every hop and the node fan-out forward the
  // one shared buffer.
  util::SharedBytes wire;
  if (li == 0) wire = seal_wire(std::move(acc), decode);
  mask = 1;
  while (mask < nl) {
    if (li & mask) {
      wire = recv_blob_shared(
          groups[static_cast<std::size_t>(li - mask)].front(), t_bcast);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (li + mask < nl) {
      send_blob_shared(groups[static_cast<std::size_t>(li + mask)].front(),
                       t_bcast, wire);
    }
    mask >>= 1;
  }

  // Fan the bundle out across the node.
  for (const int m : my_group) {
    if (m != leader) send_blob_shm_shared(m, t_down, wire);
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

double Comm::allreduce_max_hier(double v) {
  return shared_scalar(allgather_wire_hier(bytes_of(v), &decode_max));
}

double Comm::allreduce_max(double v) {
  return shared_scalar(allgather_wire(bytes_of(v), &decode_max));
}

double Comm::allreduce_sum(double v) {
  return shared_scalar(allgather_wire(bytes_of(v), &decode_sum));
}

}  // namespace mcio::mpi
