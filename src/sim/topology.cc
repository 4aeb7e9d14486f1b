#include "sim/topology.h"

#include "util/check.h"

namespace mcio::sim {

Cluster::Cluster(const ClusterConfig& config) : config_(config) {
  MCIO_CHECK_GT(config_.num_nodes, 0);
  MCIO_CHECK_GT(config_.ranks_per_node, 0);
  nic_out_.reserve(static_cast<std::size_t>(config_.num_nodes));
  nic_in_.reserve(static_cast<std::size_t>(config_.num_nodes));
  membus_.reserve(static_cast<std::size_t>(config_.num_nodes));
  shm_.reserve(static_cast<std::size_t>(config_.num_nodes));
  fabric_.reserve(static_cast<std::size_t>(config_.num_nodes));
  for (int n = 0; n < config_.num_nodes; ++n) {
    nic_out_.emplace_back(config_.nic_bandwidth, config_.nic_latency);
    nic_in_.emplace_back(config_.nic_bandwidth, 0.0);
    membus_.emplace_back(config_.membus_bandwidth, 0.0);
    shm_.emplace_back(config_.shm_bandwidth, config_.shm_latency);
    fabric_.emplace_back(config_.fabric_mem_bandwidth,
                         config_.fabric_mem_latency);
  }
}

int Cluster::node_of_rank(int rank) const {
  MCIO_CHECK_GE(rank, 0);
  MCIO_CHECK_LT(rank, total_ranks());
  return rank / config_.ranks_per_node;
}

BandwidthQueue& Cluster::nic_out(int node) {
  return nic_out_.at(static_cast<std::size_t>(node));
}

BandwidthQueue& Cluster::nic_in(int node) {
  return nic_in_.at(static_cast<std::size_t>(node));
}

BandwidthQueue& Cluster::membus(int node) {
  return membus_.at(static_cast<std::size_t>(node));
}

BandwidthQueue& Cluster::shm(int node) {
  return shm_.at(static_cast<std::size_t>(node));
}

BandwidthQueue& Cluster::fabric(int node) {
  return fabric_.at(static_cast<std::size_t>(node));
}

}  // namespace mcio::sim
