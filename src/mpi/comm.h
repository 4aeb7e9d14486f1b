// The world communicator: point-to-point messaging and collectives.
//
// The API mirrors the MPI subset ROMIO's collective I/O machinery uses.
// Every rank of a run runs on the one world communicator, so a rank's
// communicator rank is its rank, and every receive names its source and
// tag (no wildcards). A send picks its Channel: the membus/NIC transport,
// or the node's shared-memory segment between ranks of one node. The
// allgather/allreduce_max collectives run the node-leader tree when
// asked (`hier`), else the same tree over one-rank groups. Operations
// are byte-oriented; the typed allgather<T> wraps them for trivially
// copyable metadata.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "mpi/machine.h"
#include "mpi/message.h"
#include "util/payload.h"

namespace mcio::mpi {

/// Handle for a non-blocking receive; it completes on match. Move-only:
/// wait() hands its pooled slot back to the machine, so exactly one
/// handle may own it. A request never waited on keeps its slot until the
/// run ends.
class Request {
 public:
  Request() = default;
  Request(const Request&) = delete;
  Request& operator=(const Request&) = delete;
  Request(Request&& other) noexcept
      : slot_(std::exchange(other.slot_, kNone)) {}
  Request& operator=(Request&& other) noexcept {
    slot_ = std::exchange(other.slot_, kNone);
    return *this;
  }

  bool valid() const { return slot_ != kNone; }

 private:
  friend class Comm;
  explicit Request(std::uint32_t slot) : slot_(slot) {}
  std::uint32_t slot_ = kNone;  ///< index into the machine's SlotPool
};

/// A received variable-size blob plus the virtual arrival times of its
/// size header and body, so the receive cost can be charged later (and in
/// a different order than the blobs were drained in).
struct FramedBlob {
  int source = 0;
  int tag = 0;
  std::vector<std::byte> bytes;
  sim::SimTime header_arrival = 0.0;
  sim::SimTime arrival = 0.0;  ///< body arrival (== header for empty blobs)
};

/// The path a message's bytes take: the membus/NIC transport
/// (Machine::transfer), or the node's shared-memory segment
/// (Machine::shm_transfer), which needs both ends on one node.
enum class Channel : std::uint8_t { kTransport, kShm };

class Comm {
 public:
  int rank() const { return owner_->rank(); }
  int size() const { return static_cast<int>(world_->nodes.size()); }
  /// The world id the verify::Observer hooks report.
  std::uint64_t id() const { return world_->id; }

  /// Physical node hosting a rank.
  int node_of(int r) const {
    MCIO_CHECK_GE(r, 0);
    MCIO_CHECK_LT(r, size());
    return world_->nodes[static_cast<std::size_t>(r)];
  }
  /// Physical node of every rank.
  const std::vector<int>& nodes() const { return world_->nodes; }
  /// The lowest rank on each node, ascending (computed once per run).
  const std::vector<int>& node_leaders() const {
    return world_->node_leaders;
  }

  /// The current collective's shared plan: call it from every rank, right
  /// after the collective whose result `build` reads. The first rank to
  /// arrive runs `build`; every rank gets the same object and the
  /// builder's input hash (Machine::share_plan, keyed by the collective
  /// sequence). `key` hashes this rank's own plan inputs.
  SharedPlan share_plan(
      std::uint64_t key,
      const std::function<std::shared_ptr<const void>()>& build);

  // --- point-to-point (a kShm send needs `dst` on this rank's node) ---
  void send(int dst, int tag, util::ConstPayload data,
            Channel channel = Channel::kTransport);
  void recv(int src, int tag, util::Payload buf, Status* status = nullptr);
  Request irecv(int src, int tag, util::Payload buf);
  /// Completes `request` at max(clock, arrival) plus the receive
  /// overhead. It yields only while its message has not been sent.
  void wait(Request& request, Status* status = nullptr);
  void waitall(std::span<Request> requests);

  /// Sends a variable-size byte blob as one framed message. The virtual
  /// time charged is identical to the historical two-message protocol
  /// (8-byte size header then body on the same tag): both transport
  /// passes still run, but only one envelope is delivered and matched.
  void send_blob(int dst, int tag, std::span<const std::byte> blob,
                 Channel channel = Channel::kTransport);
  /// send_blob of a shared immutable buffer: same charges, no copy.
  void send_blob_shared(int dst, int tag, util::SharedBytes blob,
                        Channel channel = Channel::kTransport);
  /// Receives a blob of unknown size.
  std::vector<std::byte> recv_blob(int src, int tag,
                                   Status* status = nullptr);
  /// Matches the next framed blob from (src, tag) *without* charging its
  /// receive cost; pair with charge_blob(). Lets a drain loop collect
  /// every blob before it charges any, so the clock after the charges
  /// does not depend on the order the blobs arrived in.
  FramedBlob recv_blob_deferred(int src, int tag);
  /// Replays the virtual-time cost of receiving `b` (header then body).
  void charge_blob(const FramedBlob& b, Status* status = nullptr);
  /// recv_blob keeping a shared sender's buffer shared (no copy).
  util::SharedBytes recv_blob_shared(int src, int tag);

  // --- collectives (must be called by every rank in the same order) ---
  void barrier();

  // Typed allgather of trivially copyable metadata. It decodes the
  // gathered wire once per collective: every rank gets the same vector.
  // With `hier`, intra-node legs ride the shm channel into the node's
  // lowest rank, only leaders take the inter-node binomial step, and the
  // result fans back out over shm: the same result, a different modeled
  // traffic pattern (allreduce_max alike).
  template <typename T>
  std::shared_ptr<const std::vector<T>> allgather(const T& v,
                                                  bool hier = false);

  double allreduce_max(double v, bool hier = false);
  double allreduce_sum(double v);

  /// Reserves `n` consecutive tags from the collective tag space and
  /// returns the first. Collective in the weak sense: every rank must
  /// reserve the same counts in the same order (drivers do).
  int reserve_tags(int n);

 private:
  friend class Rank;
  friend class Machine;

  Comm(Machine* machine, Rank* owner);

  int next_coll_tag();

  /// Takes the oldest message queued under (src, tag), or posts a pending
  /// receive, without yielding; `take` makes it a blob receive of the
  /// whole parcel. Returns the receive's slot index.
  std::uint32_t post_recv(int src, int tag, util::Payload buf, bool take);
  /// Decodes a complete allgather wire into its shared form.
  using WireDecoder = std::shared_ptr<const void> (*)(
      const Comm&, const std::vector<std::byte>&);

  /// Charges and delivers one message over `channel`: a plain one in one
  /// pass, a framed blob in the two passes (size header, then body) of
  /// the historical two-message protocol.
  void post(int dst, int tag, util::OwnedPayload body, Channel channel,
            bool framed);
  /// Matches the next framed envelope from (src, tag), parking until one
  /// arrives, and moves it out of the envelope slab; charges nothing.
  Envelope take_framed(int src, int tag);
  /// Returns with the clock at or past `slot`'s arrival: parks until a
  /// send matches a receive that is still unmatched, else moves the clock
  /// to the arrival without yielding. Tells the observer what this fiber
  /// waits on, unless the message is already in hand by its clock, so a
  /// deadlock report can name the missing message (see DESIGN.md §8).
  void park_until_done(RecvSlot& slot);
  /// Charges the receive of a framed blob of `size` bytes timed by `b`.
  void charge_framed(const FramedBlob& b, std::uint64_t size,
                     Status* status);

  // Binomial trees for collectives over `n` participants rooted at
  // participant 0; this rank is participant `me`, and `rank_of` maps a
  // participant to its rank. Gathers move one flat wire
  // bundle (u64 count, then per item u64 rank, u64 len, raw bytes) up the
  // tree, starting from this rank's bundle `acc`; parse_wire scatters a
  // bundle of fixed-size items into a dense per-rank array.
  template <typename RankOf>
  std::vector<std::byte> tree_gather_wire(int tag, int n, int me,
                                          const RankOf& rank_of,
                                          std::vector<std::byte> acc);
  /// Broadcasts `blob` from participant 0; every hop forwards the one
  /// shared buffer.
  template <typename RankOf>
  void tree_bcast_blob(int tag, int n, int me, const RankOf& rank_of,
                       util::SharedBytes& blob);
  /// Freezes a complete wire for broadcast, attaching `decode`'s result.
  util::SharedBytes seal_wire(std::vector<std::byte> wire,
                              WireDecoder decode) const;
  /// Gathers every rank's `mine` into one wire and shares it, decoded by
  /// `decode`, over the node-leader tree (`hier`) or the flat one.
  util::SharedBytes allgather_wire(std::span<const std::byte> mine,
                                   WireDecoder decode, bool hier);
  void parse_wire(const std::vector<std::byte>& wire, std::uint64_t elem_size,
                  std::byte* out) const;
  template <typename T>
  static std::shared_ptr<const void> decode_fixed(
      const Comm& comm, const std::vector<std::byte>& wire);
  /// Wire decoders of the allreduces: the root reduces the gathered
  /// values once, in rank order, and shares the scalar.
  static std::shared_ptr<const void> decode_max(
      const Comm& comm, const std::vector<std::byte>& wire);
  static std::shared_ptr<const void> decode_sum(
      const Comm& comm, const std::vector<std::byte>& wire);

  Machine* machine_;
  Rank* owner_;
  std::shared_ptr<const Group> world_;
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
std::shared_ptr<const std::vector<T>> Comm::allgather(const T& v, bool hier) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto* p = reinterpret_cast<const std::byte*>(&v);
  const util::SharedBytes wire = allgather_wire(
      std::span<const std::byte>(p, sizeof(T)), &decode_fixed<T>, hier);
  return std::static_pointer_cast<const std::vector<T>>(wire->decoded);
}

}  // namespace mcio::mpi
