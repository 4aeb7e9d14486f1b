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
    const std::string suffix = std::to_string(n);
    nic_out_.emplace_back("nic_out/" + suffix, config_.nic_bandwidth,
                          config_.nic_latency);
    nic_in_.emplace_back("nic_in/" + suffix, config_.nic_bandwidth, 0.0);
    membus_.emplace_back("membus/" + suffix, config_.membus_bandwidth, 0.0);
    shm_.emplace_back("shm/" + suffix, config_.shm_bandwidth,
                      config_.shm_latency);
    fabric_.emplace_back("fabric/" + suffix, config_.fabric_mem_bandwidth,
                         config_.fabric_mem_latency);
  }
}

int Cluster::node_of_rank(int rank) const {
  MCIO_CHECK_GE(rank, 0);
  MCIO_CHECK_LT(rank, total_ranks());
  return rank / config_.ranks_per_node;
}

std::vector<int> Cluster::ranks_on_node(int node) const {
  MCIO_CHECK_GE(node, 0);
  MCIO_CHECK_LT(node, config_.num_nodes);
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(config_.ranks_per_node));
  for (int r = 0; r < config_.ranks_per_node; ++r) {
    out.push_back(node * config_.ranks_per_node + r);
  }
  return out;
}

int Cluster::first_rank_on_node(int node) const {
  MCIO_CHECK_GE(node, 0);
  MCIO_CHECK_LT(node, config_.num_nodes);
  return node * config_.ranks_per_node;
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

void Cluster::reset_accounting() {
  for (auto& q : nic_out_) q.reset_accounting();
  for (auto& q : nic_in_) q.reset_accounting();
  for (auto& q : membus_) q.reset_accounting();
  for (auto& q : shm_) q.reset_accounting();
  for (auto& q : fabric_) q.reset_accounting();
}

}  // namespace mcio::sim
