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

void Comm::bcast_bytes(util::Payload data, int root) {
  const int tag = next_coll_tag();
  const int p = size();
  const int relative = (rank() - root + p) % p;
  int mask = 1;
  while (mask < p) {
    if (relative & mask) {
      const int src = (relative - mask + root) % p;
      recv(src, tag, data);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (relative + mask < p) {
      const int dst = (relative + mask + root) % p;
      send(dst, tag, util::ConstPayload(data));
    }
    mask >>= 1;
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

std::vector<std::vector<std::byte>> Comm::split_wire(
    const std::vector<std::byte>& wire) const {
  std::vector<std::vector<std::byte>> out(static_cast<std::size_t>(size()));
  std::size_t pos = 0;
  const std::uint64_t count = read_u64(wire, pos);
  MCIO_CHECK_EQ(count, static_cast<std::uint64_t>(size()));
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t r = read_u64(wire, pos);
    const std::uint64_t len = read_u64(wire, pos);
    MCIO_CHECK_LT(r, count);
    MCIO_CHECK_LE(pos + len, wire.size());
    out[r].assign(wire.begin() + static_cast<std::ptrdiff_t>(pos),
                  wire.begin() + static_cast<std::ptrdiff_t>(pos + len));
    pos += len;
  }
  return out;
}

std::vector<std::vector<std::byte>> Comm::gather_blobs(
    std::span<const std::byte> mine, int root) {
  const auto wire = tree_gather_wire(next_coll_tag(), root, mine);
  if (rank() != root) {
    return std::vector<std::vector<std::byte>>(
        static_cast<std::size_t>(size()));
  }
  return split_wire(wire);
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

std::vector<std::vector<std::byte>> Comm::allgather_blobs(
    std::span<const std::byte> mine) {
  return split_wire(allgather_wire(mine, nullptr)->bytes);
}

void Comm::gather_fixed(std::span<const std::byte> mine, int root,
                        std::byte* out) {
  const auto wire = tree_gather_wire(next_coll_tag(), root, mine);
  if (rank() == root) parse_wire(wire, mine.size(), out);
}

std::vector<std::vector<std::byte>> Comm::alltoallv_blobs(
    std::span<const std::vector<std::byte>> to_each) {
  MCIO_CHECK_EQ(to_each.size(), static_cast<std::size_t>(size()));
  const int tag = next_coll_tag();
  for (int d = 0; d < size(); ++d) {
    send_blob(d, tag, to_each[static_cast<std::size_t>(d)]);
  }
  std::vector<std::vector<std::byte>> out(static_cast<std::size_t>(size()));
  for (int s = 0; s < size(); ++s) {
    out[static_cast<std::size_t>(s)] = recv_blob(s, tag);
  }
  return out;
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

std::vector<std::vector<std::byte>> Comm::allgather_blobs_hier(
    std::span<const std::byte> mine) {
  return split_wire(allgather_wire_hier(mine, nullptr)->bytes);
}

double Comm::allreduce_max_hier(double v) {
  const auto all = allgather_hier(v);
  return *std::max_element(all->begin(), all->end());
}

std::int64_t Comm::allreduce_max_hier(std::int64_t v) {
  const auto all = allgather_hier(v);
  return *std::max_element(all->begin(), all->end());
}

std::vector<std::vector<std::byte>> Comm::alltoallv_blobs_hier(
    std::span<const std::vector<std::byte>> to_each) {
  MCIO_CHECK_EQ(to_each.size(), static_cast<std::size_t>(size()));
  const auto& groups = group_->node_groups;
  const int t_up = next_coll_tag();
  const int t_relay = next_coll_tag();
  const int t_down = next_coll_tag();
  const auto my_li = static_cast<std::size_t>(
      group_->node_group_of[static_cast<std::size_t>(rank())]);
  const std::vector<int>& my_group = groups[my_li];
  const int leader = my_group.front();

  // Relay bundles are flat: u64 count, then per item u64 src, u64 dst,
  // u64 len, raw bytes. Empty blobs are elided; absent items deliver as
  // empty, matching the flat variant.
  auto append_item = [](std::vector<std::byte>& w, std::uint64_t src,
                        std::uint64_t dst, const std::vector<std::byte>& b) {
    const std::size_t pos = w.size();
    w.resize(pos + 3 * sizeof(std::uint64_t) + b.size());
    write_u64_at(w, pos, src);
    write_u64_at(w, pos + 8, dst);
    write_u64_at(w, pos + 16, b.size());
    std::memcpy(w.data() + pos + 24, b.data(), b.size());
  };

  std::vector<std::vector<std::byte>> out(static_cast<std::size_t>(size()));

  if (rank() != leader) {
    // Member: one bundle of all my outgoing items up, my deliveries down.
    std::vector<std::byte> up(sizeof(std::uint64_t));
    std::uint64_t c = 0;
    for (int d = 0; d < size(); ++d) {
      const auto& blob = to_each[static_cast<std::size_t>(d)];
      if (blob.empty()) continue;
      append_item(up, static_cast<std::uint64_t>(rank()),
                  static_cast<std::uint64_t>(d), blob);
      ++c;
    }
    write_u64_at(up, 0, c);
    send_blob_shm(leader, t_up, up);
    const auto down = recv_blob(leader, t_down);
    std::size_t pos = 0;
    const std::uint64_t n = read_u64(down, pos);
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t src = read_u64(down, pos);
      const std::uint64_t len = read_u64(down, pos);
      MCIO_CHECK_LT(src, static_cast<std::uint64_t>(size()));
      MCIO_CHECK_LE(pos + len, down.size());
      out[src].assign(down.begin() + static_cast<std::ptrdiff_t>(pos),
                      down.begin() + static_cast<std::ptrdiff_t>(pos + len));
      pos += len;
    }
    return out;
  }

  // Leader: pool my items with the members', then split per target node.
  std::vector<std::byte> pool(sizeof(std::uint64_t));
  std::uint64_t pool_count = 0;
  for (int d = 0; d < size(); ++d) {
    const auto& blob = to_each[static_cast<std::size_t>(d)];
    if (blob.empty()) continue;
    append_item(pool, static_cast<std::uint64_t>(rank()),
                static_cast<std::uint64_t>(d), blob);
    ++pool_count;
  }
  for (const int m : my_group) {
    if (m == leader) continue;
    const auto child = recv_blob(m, t_up);
    std::size_t pos = 0;
    pool_count += read_u64(child, pos);
    pool.insert(pool.end(), child.begin() + static_cast<std::ptrdiff_t>(pos),
                child.end());
  }
  write_u64_at(pool, 0, pool_count);

  const std::vector<int>& li_of_rank = group_->node_group_of;
  std::vector<std::vector<std::byte>> per_node(
      groups.size(), std::vector<std::byte>(sizeof(std::uint64_t)));
  std::vector<std::uint64_t> per_count(groups.size(), 0);
  {
    std::size_t pos = 0;
    const std::uint64_t n = read_u64(pool, pos);
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t src = read_u64(pool, pos);
      const std::uint64_t dst = read_u64(pool, pos);
      const std::uint64_t len = read_u64(pool, pos);
      MCIO_CHECK_LT(dst, static_cast<std::uint64_t>(size()));
      MCIO_CHECK_LE(pos + len, pool.size());
      const auto li = static_cast<std::size_t>(
          li_of_rank[static_cast<std::size_t>(dst)]);
      std::vector<std::byte>& w = per_node[li];
      const std::size_t wpos = w.size();
      w.resize(wpos + 3 * sizeof(std::uint64_t) + len);
      write_u64_at(w, wpos, src);
      write_u64_at(w, wpos + 8, dst);
      write_u64_at(w, wpos + 16, len);
      std::memcpy(w.data() + wpos + 24, pool.data() + pos, len);
      ++per_count[li];
      pos += len;
    }
  }
  for (std::size_t li = 0; li < groups.size(); ++li) {
    write_u64_at(per_node[li], 0, per_count[li]);
    if (li == my_li) continue;
    send_blob(groups[li].front(), t_relay, per_node[li]);
  }

  // Collect the items addressed to my node (own split + one relay bundle
  // per remote leader, ascending) and hand each member its slice, sorted
  // by source for a deterministic, arrival-order-independent result.
  std::vector<std::byte> local = std::move(per_node[my_li]);
  std::uint64_t local_count = per_count[my_li];
  for (std::size_t li = 0; li < groups.size(); ++li) {
    if (li == my_li) continue;
    const auto child = recv_blob(groups[li].front(), t_relay);
    std::size_t pos = 0;
    local_count += read_u64(child, pos);
    local.insert(local.end(),
                 child.begin() + static_cast<std::ptrdiff_t>(pos),
                 child.end());
  }
  write_u64_at(local, 0, local_count);

  struct Item {
    std::uint64_t src = 0;
    std::uint64_t dst = 0;
    std::uint64_t len = 0;
    std::size_t pos = 0;  // offset of the bytes inside `local`
  };
  std::vector<Item> items;
  items.reserve(static_cast<std::size_t>(local_count));
  {
    std::size_t pos = 0;
    const std::uint64_t n = read_u64(local, pos);
    for (std::uint64_t i = 0; i < n; ++i) {
      Item it;
      it.src = read_u64(local, pos);
      it.dst = read_u64(local, pos);
      it.len = read_u64(local, pos);
      MCIO_CHECK_LE(pos + it.len, local.size());
      it.pos = pos;
      pos += it.len;
      items.push_back(it);
    }
  }
  std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
    return a.dst != b.dst ? a.dst < b.dst : a.src < b.src;
  });

  std::vector<std::byte> down;
  for (const int m : my_group) {
    if (m == leader) {
      for (const Item& it : items) {
        if (static_cast<int>(it.dst) != m) continue;
        out[it.src].assign(
            local.begin() + static_cast<std::ptrdiff_t>(it.pos),
            local.begin() + static_cast<std::ptrdiff_t>(it.pos + it.len));
      }
      continue;
    }
    down.assign(sizeof(std::uint64_t), std::byte{});
    std::uint64_t c = 0;
    for (const Item& it : items) {
      if (static_cast<int>(it.dst) != m) continue;
      const std::size_t wpos = down.size();
      down.resize(wpos + 2 * sizeof(std::uint64_t) + it.len);
      write_u64_at(down, wpos, it.src);
      write_u64_at(down, wpos + 8, it.len);
      std::memcpy(down.data() + wpos + 16, local.data() + it.pos, it.len);
      ++c;
    }
    write_u64_at(down, 0, c);
    send_blob_shm(m, t_down, down);
  }
  return out;
}

double Comm::allreduce_max(double v) {
  const auto all = allgather(v);
  return *std::max_element(all->begin(), all->end());
}

double Comm::allreduce_sum(double v) {
  const auto all = allgather(v);
  double s = 0.0;
  for (const double x : *all) s += x;
  return s;
}

std::int64_t Comm::allreduce_max(std::int64_t v) {
  const auto all = allgather(v);
  return *std::max_element(all->begin(), all->end());
}

std::int64_t Comm::allreduce_sum(std::int64_t v) {
  const auto all = allgather(v);
  std::int64_t s = 0;
  for (const std::int64_t x : *all) s += x;
  return s;
}

}  // namespace mcio::mpi
