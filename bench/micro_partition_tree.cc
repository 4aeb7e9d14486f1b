// Microbenchmarks: weighted bisection and remerge throughput
// (google-benchmark).
#include <benchmark/benchmark.h>

#include <vector>

#include "core/partition_tree.h"
#include "micro_main.h"
#include "util/rng.h"

namespace {

using mcio::core::PartitionTree;
using mcio::util::Extent;

void BM_BisectWeighted(benchmark::State& state) {
  const auto parts = static_cast<std::size_t>(state.range(0));
  mcio::util::Rng rng(7);
  std::vector<double> weights(parts);
  for (auto& w : weights) w = rng.uniform_double(1.0, 4.0);
  for (auto _ : state) {
    PartitionTree tree(Extent{0, 1ull << 34});
    tree.bisect_weighted(weights, 1 << 20);
    benchmark::DoNotOptimize(tree.num_leaves());
  }
}
BENCHMARK(BM_BisectWeighted)->Arg(16)->Arg(128)->Arg(1024);

void BM_Remerge(benchmark::State& state) {
  const auto merges = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    PartitionTree tree(Extent{0, 1ull << 30});
    tree.bisect_weighted(
        std::vector<double>(static_cast<std::size_t>(merges) * 2, 1.0),
        1 << 20);
    state.ResumeTiming();
    for (int i = 0; i < merges; ++i) {
      const auto leaves = tree.leaf_ids();
      if (leaves.size() < 2) break;
      tree.remerge_into_neighbor(leaves[leaves.size() / 2]);
    }
    benchmark::DoNotOptimize(tree.num_leaves());
  }
}
BENCHMARK(BM_Remerge)->Arg(8)->Arg(64)->Arg(256);

}  // namespace

int main(int argc, char** argv) {
  return mcio::bench::micro_main(argc, argv, "micro_partition_tree");
}
