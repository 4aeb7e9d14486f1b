// Striped parallel file system simulator (Lustre-like).
//
// Files are striped round-robin over object storage targets (OSTs) in
// `stripe_unit` chunks. Each OST is a FIFO bandwidth server with a per-RPC
// latency and a seek penalty for discontiguous object access — the model
// that makes *large contiguous* requests fast and *many small scattered*
// requests slow, which is the behaviour collective I/O exists to exploit.
//
// Timing path of one client request:
//   write:  client NIC egress → per-OST RPCs (latency [+ seek] + bytes/bw)
//   read:   per-OST RPCs → client NIC ingress
// Completion is the max over all RPCs; the caller's virtual clock advances
// to it (synchronous POSIX-like semantics, as in Lustre without async I/O).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "pfs/store.h"
#include "sim/engine.h"
#include "sim/resource.h"
#include "sim/topology.h"
#include "verify/observer.h"

namespace mcio::pfs {

struct PfsConfig {
  int num_osts = 32;
  std::uint64_t stripe_unit = 1ull << 20;  ///< 1 MiB, the paper's setting
  /// OSTs per file; -1 = stripe over all (the paper stripes over all
  /// servers with round-robin placement).
  int default_stripe_count = -1;
  double ost_write_bandwidth = 60.0e6;  ///< bytes/s per OST
  double ost_read_bandwidth = 75.0e6;
  sim::SimTime rpc_latency = 0.4e-3;  ///< per-RPC server overhead
  sim::SimTime seek_latency = 4.0e-3;  ///< discontiguous-object penalty (writes)
  /// Discontiguous-object penalty for reads; negative = same as writes.
  sim::SimTime read_seek_latency = -1.0;
  std::uint64_t max_rpc_bytes = 1ull << 20;  ///< client RPC size cap
  bool store_data = true;  ///< keep real bytes for verification
};

using FileHandle = int;

class Pfs {
 public:
  Pfs(sim::Cluster& cluster, const PfsConfig& config);
  ~Pfs();

  const PfsConfig& config() const { return config_; }

  /// Creates (or truncates) a file. stripe_count -1 = all OSTs.
  FileHandle create(const std::string& path, int stripe_count = 0);
  /// Opens an existing file.
  FileHandle open(const std::string& path);
  bool exists(const std::string& path) const;
  void remove(const std::string& path);

  std::uint64_t file_size(FileHandle fh) const;
  int stripe_count(FileHandle fh) const;

  /// Writes `data` at `offset`; advances the actor to completion.
  /// `client_bw_scale` (≤1) models pressure on the client buffer (paging).
  void write(sim::Actor& actor, FileHandle fh, std::uint64_t offset,
             util::ConstPayload data, double client_bw_scale = 1.0);

  /// Reads into `out` from `offset`; advances the actor to completion.
  void read(sim::Actor& actor, FileHandle fh, std::uint64_t offset,
            util::Payload out, double client_bw_scale = 1.0);

  /// Drops simulated server-side locality state (the paper flushes caches
  /// between write and read phases); also forgets OST head positions.
  void flush_locality();

  // Accounting for reports.
  double total_bytes_written() const { return bytes_written_; }
  std::uint64_t total_rpcs() const { return rpcs_; }
  std::uint64_t total_seeks() const { return seeks_; }
  int num_osts() const { return static_cast<int>(osts_.size()); }
  void reset_accounting();

  /// Direct store access for test verification (real-data mode only).
  const Store& store(FileHandle fh) const;

  /// Content hash of the file's logical bytes (see Store::content_hash).
  /// Only meaningful with store_data; the differential fuzzer's byte
  /// oracle compares drivers through this.
  std::uint64_t content_hash(FileHandle fh) const;

  /// Verification observer for store-level read/write events (never
  /// null; defaults to verify::global_observer() or a no-op).
  void set_observer(verify::Observer* observer);
  verify::Observer* observer() const { return observer_; }

 private:
  struct Ost {
    sim::BandwidthQueue queue;
    // Last object offset served per file, for seek detection.
    std::map<int, std::uint64_t> last_end;
  };

  struct FileState {
    int stripe_count = 1;
    int first_ost = 0;  ///< round-robin starting OST
    std::uint64_t size = 0;
    Store store;
  };

  /// One contiguous piece of a request on one OST.
  struct Rpc {
    int ost = 0;
    std::uint64_t object_offset = 0;
    std::uint64_t bytes = 0;
  };

  std::vector<Rpc> split_request(const FileState& f, std::uint64_t offset,
                                 std::uint64_t len) const;

  /// Serves `rpcs` of file `fh`, tracking seeks per (OST, handle).
  sim::SimTime serve_rpcs(FileHandle fh, const std::vector<Rpc>& rpcs,
                          bool is_write, int client_node,
                          sim::SimTime start, double client_bw_scale);

  FileState& state(FileHandle fh);
  const FileState& state(FileHandle fh) const;

  sim::Cluster& cluster_;
  PfsConfig config_;
  std::vector<Ost> osts_;
  std::vector<std::unique_ptr<FileState>> files_;
  std::map<std::string, FileHandle> by_path_;
  int next_first_ost_ = 0;
  verify::Observer* observer_;
  double bytes_written_ = 0.0;
  std::uint64_t rpcs_ = 0;
  std::uint64_t seeks_ = 0;
};

}  // namespace mcio::pfs
