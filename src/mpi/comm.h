// Communicators: point-to-point messaging and collectives.
//
// The API mirrors the MPI subset ROMIO's collective I/O machinery uses.
// All operations are byte-oriented; typed helpers (allgather<T> etc.) wrap
// them for trivially copyable metadata.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "mpi/machine.h"
#include "mpi/message.h"
#include "util/payload.h"

namespace mcio::mpi {

/// Handle for a non-blocking operation. Send requests complete at post
/// time (buffered-eager transport); receive requests complete on match.
class Request {
 public:
  Request() = default;
  bool valid() const { return slot_ != nullptr || send_; }

 private:
  friend class Comm;
  std::shared_ptr<RecvSlot> slot_;  // null for send requests
  bool send_ = false;
};

/// A received variable-size blob plus the virtual arrival times of its
/// size header and body, so the receive cost can be charged later (and in
/// a different order than the blobs were drained in).
struct FramedBlob {
  int source = kAnySource;  ///< rank within the communicator
  int tag = 0;
  std::vector<std::byte> bytes;
  sim::SimTime header_arrival = 0.0;
  sim::SimTime arrival = 0.0;  ///< body arrival (== header for empty blobs)
};

class Comm {
 public:
  int rank() const { return my_index_; }
  int size() const { return static_cast<int>(group_->members.size()); }
  /// Communicator id: the group's content hash, or a generated id for a
  /// dup().
  std::uint64_t id() const { return comm_id_; }

  /// World rank of a rank in this communicator.
  int world_rank(int crank) const {
    MCIO_CHECK_GE(crank, 0);
    MCIO_CHECK_LT(crank, size());
    return group_->members[static_cast<std::size_t>(crank)];
  }
  /// Physical node hosting a rank of this communicator.
  int node_of(int crank) const {
    MCIO_CHECK_GE(crank, 0);
    MCIO_CHECK_LT(crank, size());
    return group_->nodes[static_cast<std::size_t>(crank)];
  }
  /// The lowest rank on each node, ascending (computed once per group).
  const std::vector<int>& node_leaders() const {
    return group_->node_leaders;
  }

  /// The current collective's shared plan: call it from every rank, right
  /// after the collective whose result `build` reads. The first rank to
  /// arrive runs `build`; every rank gets the same object and the
  /// builder's input hash (Machine::share_plan, keyed by this
  /// communicator and its collective sequence). `key` hashes this rank's
  /// own plan inputs.
  SharedPlan share_plan(
      std::uint64_t key,
      const std::function<std::shared_ptr<const void>()>& build);

  // --- point-to-point ---
  void send(int dst, int tag, util::ConstPayload data);
  Request isend(int dst, int tag, util::ConstPayload data);
  void recv(int src, int tag, util::Payload buf, Status* status = nullptr);
  Request irecv(int src, int tag, util::Payload buf);
  void wait(Request& request, Status* status = nullptr);
  void waitall(std::span<Request> requests);
  /// True when the request has completed (non-blocking poll).
  bool test(const Request& request) const;

  /// Sends a variable-size byte blob as one framed message. The virtual
  /// time charged is identical to the historical two-message protocol
  /// (8-byte size header then body on the same tag): both transport
  /// passes still run, but only one envelope is delivered and matched.
  void send_blob(int dst, int tag, std::span<const std::byte> blob);
  /// send_blob of a shared immutable buffer: same charges, no copy.
  void send_blob_shared(int dst, int tag, util::SharedBytes blob);
  /// Receives a blob of unknown size (kAnySource allowed).
  std::vector<std::byte> recv_blob(int src, int tag,
                                   Status* status = nullptr);
  /// Matches the next framed blob *without* advancing virtual time; pair
  /// with charge_blob(). Lets a drain loop collect blobs in arrival order
  /// yet charge their receive cost in a canonical order, keeping the
  /// simulated clock independent of arrival interleaving.
  FramedBlob recv_blob_deferred(int src, int tag);
  /// Replays the virtual-time cost of receiving `b` (header then body).
  void charge_blob(const FramedBlob& b, Status* status = nullptr);
  /// recv_blob keeping a shared sender's buffer shared (no copy).
  util::SharedBytes recv_blob_shared(int src, int tag);

  /// Same-node variants of send/send_blob moving the payload over the
  /// node's shared-memory channel instead of the membus/NIC transport —
  /// the modeled single-copy path of the node-leader hierarchy. The
  /// destination must live on the sender's node. Received with the normal
  /// recv/recv_blob family.
  void send_shm(int dst, int tag, util::ConstPayload data);
  void send_blob_shm(int dst, int tag, std::span<const std::byte> blob);
  void send_blob_shm_shared(int dst, int tag, util::SharedBytes blob);

  // --- collectives (must be called by every rank of the communicator in
  //     the same order) ---
  void barrier();
  void bcast_bytes(util::Payload data, int root);
  /// Variable-size gather: returns one blob per rank at root (empty
  /// elsewhere). Blobs are real bytes; metadata is always real.
  std::vector<std::vector<std::byte>> gather_blobs(
      std::span<const std::byte> mine, int root);
  /// Variable-size allgather (gather + bcast of the concatenation).
  std::vector<std::vector<std::byte>> allgather_blobs(
      std::span<const std::byte> mine);

  // Typed helpers for trivially copyable metadata. allgather decodes the
  // gathered wire once per collective: every rank gets the same vector.
  template <typename T>
  std::shared_ptr<const std::vector<T>> allgather(const T& v);
  template <typename T>
  std::vector<T> gather(const T& v, int root);
  template <typename T>
  void bcast(T& v, int root);
  template <typename T>
  std::vector<std::vector<T>> allgatherv(std::span<const T> mine);

  double allreduce_max(double v);
  double allreduce_sum(double v);
  std::int64_t allreduce_max(std::int64_t v);
  std::int64_t allreduce_sum(std::int64_t v);

  /// All-to-all of variable blobs: out[src] is the blob `src` addressed to
  /// me (to_each needs size() entries; empty entries arrive empty).
  std::vector<std::vector<std::byte>> alltoallv_blobs(
      std::span<const std::vector<std::byte>> to_each);

  // --- hierarchical (node-leader) collectives ---
  // Intra-node legs ride the shm channel into the node's lowest rank, only
  // leaders take the inter-node binomial step, and results fan back out
  // over shm. Results are identical to the flat variants; only the modeled
  // traffic pattern differs. Same collective-call discipline applies.
  std::vector<std::vector<std::byte>> allgather_blobs_hier(
      std::span<const std::byte> mine);
  template <typename T>
  std::shared_ptr<const std::vector<T>> allgather_hier(const T& v);
  double allreduce_max_hier(double v);
  std::int64_t allreduce_max_hier(std::int64_t v);
  std::vector<std::vector<std::byte>> alltoallv_blobs_hier(
      std::span<const std::vector<std::byte>> to_each);

  /// Reserves `n` consecutive tags from the collective tag space and
  /// returns the first. Collective in the weak sense: every rank must
  /// reserve the same counts in the same order (drivers do).
  int reserve_tags(int n);

  /// Splits into sub-communicators by color; ranks ordered by (key, rank).
  /// Every rank must participate (use color >= 0).
  Comm split(int color, int key);

  /// Duplicate handle (same group, fresh collective-sequence space).
  Comm dup();

 private:
  friend class Rank;
  friend class Machine;

  Comm(Machine* machine, Rank* owner, std::shared_ptr<const Group> group,
       int my_index, std::uint64_t comm_id);

  int next_coll_tag();
  Endpoint& my_endpoint();

  /// Decodes a complete allgather wire into its shared form.
  using WireDecoder = std::shared_ptr<const void> (*)(
      const Comm&, const std::vector<std::byte>&);

  /// Charges and delivers one framed blob (the two-pass header + body
  /// protocol) over the transport, or over the node's shm channel.
  void send_framed(int dst, int tag, util::OwnedPayload body, bool shm);
  /// Matches the next framed envelope from (src, tag), parking until one
  /// arrives; charges nothing.
  Envelope take_framed(int src, int tag);
  /// Charges the receive of a framed blob of `size` bytes timed by `b`.
  void charge_framed(const FramedBlob& b, std::uint64_t size,
                     Status* status);

  // Tree helpers for collectives. Gathers move one flat wire bundle
  // (u64 count, then per item u64 rank, u64 len, raw bytes) up a binomial
  // tree; parse_wire scatters a bundle of fixed-size items into a dense
  // per-rank array.
  std::vector<std::byte> tree_gather_wire(int tag, int root,
                                          std::span<const std::byte> mine);
  /// Broadcasts `blob` from `root`; every hop forwards the one shared
  /// buffer.
  void tree_bcast_blob(int tag, int root, util::SharedBytes& blob);
  /// Freezes a complete wire for broadcast, attaching `decode`'s result.
  util::SharedBytes seal_wire(std::vector<std::byte> wire,
                              WireDecoder decode) const;
  util::SharedBytes allgather_wire(std::span<const std::byte> mine,
                                   WireDecoder decode);
  void parse_wire(const std::vector<std::byte>& wire, std::uint64_t elem_size,
                  std::byte* out) const;
  /// Per-rank blobs of a variable-size allgather wire.
  std::vector<std::vector<std::byte>> split_wire(
      const std::vector<std::byte>& wire) const;
  template <typename T>
  static std::shared_ptr<const void> decode_fixed(
      const Comm& comm, const std::vector<std::byte>& wire);
  /// Fixed-size gather; `out` is written at root only.
  void gather_fixed(std::span<const std::byte> mine, int root,
                    std::byte* out);

  // Hierarchical plumbing over the group's node topology.
  util::SharedBytes allgather_wire_hier(std::span<const std::byte> mine,
                                        WireDecoder decode);

  Machine* machine_;
  Rank* owner_;
  std::shared_ptr<const Group> group_;
  int my_index_;
  std::uint64_t comm_id_;
  std::uint64_t coll_seq_ = 0;
};

// --- template implementations ---

template <typename T>
std::shared_ptr<const void> Comm::decode_fixed(
    const Comm& comm, const std::vector<std::byte>& wire) {
  auto out = std::make_shared<std::vector<T>>(
      static_cast<std::size_t>(comm.size()));
  comm.parse_wire(wire, sizeof(T), reinterpret_cast<std::byte*>(out->data()));
  return out;
}

template <typename T>
std::shared_ptr<const std::vector<T>> Comm::allgather(const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto* p = reinterpret_cast<const std::byte*>(&v);
  const util::SharedBytes wire = allgather_wire(
      std::span<const std::byte>(p, sizeof(T)), &decode_fixed<T>);
  return std::static_pointer_cast<const std::vector<T>>(wire->decoded);
}

template <typename T>
std::shared_ptr<const std::vector<T>> Comm::allgather_hier(const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto* p = reinterpret_cast<const std::byte*>(&v);
  const util::SharedBytes wire = allgather_wire_hier(
      std::span<const std::byte>(p, sizeof(T)), &decode_fixed<T>);
  return std::static_pointer_cast<const std::vector<T>>(wire->decoded);
}

template <typename T>
std::vector<T> Comm::gather(const T& v, int root) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto* p = reinterpret_cast<const std::byte*>(&v);
  std::vector<T> out;
  if (rank() == root) out.resize(static_cast<std::size_t>(size()));
  gather_fixed(std::span<const std::byte>(p, sizeof(T)), root,
               reinterpret_cast<std::byte*>(out.data()));
  return out;
}

template <typename T>
void Comm::bcast(T& v, int root) {
  static_assert(std::is_trivially_copyable_v<T>);
  bcast_bytes(util::Payload::real(reinterpret_cast<std::byte*>(&v),
                                  sizeof(T)),
              root);
}

template <typename T>
std::vector<std::vector<T>> Comm::allgatherv(std::span<const T> mine) {
  static_assert(std::is_trivially_copyable_v<T>);
  auto blobs = allgather_blobs(std::span<const std::byte>(
      reinterpret_cast<const std::byte*>(mine.data()), mine.size_bytes()));
  std::vector<std::vector<T>> out(blobs.size());
  for (std::size_t i = 0; i < blobs.size(); ++i) {
    MCIO_CHECK_EQ(blobs[i].size() % sizeof(T), 0u);
    out[i].resize(blobs[i].size() / sizeof(T));
    if (!blobs[i].empty()) {
      std::memcpy(out[i].data(), blobs[i].data(), blobs[i].size());
    }
  }
  return out;
}

}  // namespace mcio::mpi
