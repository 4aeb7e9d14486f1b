// Microbenchmarks: derived-datatype flattening and extent algebra
// (google-benchmark) — the per-collective metadata cost.
#include <benchmark/benchmark.h>

#include "micro_main.h"
#include "mpi/datatype.h"
#include "util/extent.h"

namespace {

using mcio::mpi::Datatype;
using mcio::util::Extent;
using mcio::util::ExtentList;

void BM_SubarrayFlatten(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    const Datatype t = Datatype::subarray({n, n, n}, {n / 2, n / 2, n / 2},
                                          {n / 4, n / 4, n / 4},
                                          Datatype::bytes(8));
    benchmark::DoNotOptimize(t.num_runs());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n / 2 * n / 2));
}
BENCHMARK(BM_SubarrayFlatten)->Arg(32)->Arg(64)->Arg(128);

void BM_VectorFlattenBytes(benchmark::State& state) {
  const auto count = static_cast<std::uint64_t>(state.range(0));
  const Datatype t = Datatype::vector(count, 3, 7, Datatype::bytes(512));
  for (auto _ : state) {
    auto runs = t.flatten_bytes(0, t.size() * 4);
    benchmark::DoNotOptimize(runs.size());
  }
}
BENCHMARK(BM_VectorFlattenBytes)->Arg(128)->Arg(1024)->Arg(8192);

// A list of `n` runs of 2 KiB every 4 KiB.
std::vector<Extent> strided_runs(std::uint64_t n) {
  std::vector<Extent> runs;
  runs.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) runs.push_back(Extent{i * 4096, 2048});
  return runs;
}

void BM_ExtentListClip(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const ExtentList list = ExtentList::normalize(strided_runs(n));
  for (auto _ : state) {
    std::uint64_t total = 0;
    for (std::uint64_t w = 0; w < 16; ++w) {
      total += list.clipped(Extent{w * n * 256, n * 256}).total_bytes();
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_ExtentListClip)->Arg(1024)->Arg(16384);

// The exchange's domain and window clipping: one cursor sweeps a 16k-run
// list with consecutive windows of `range(0)` runs' bytes, offset by half
// a run so every window cuts a run at each end, into one reused list.
void BM_ExtentCursorSweep(benchmark::State& state) {
  constexpr std::uint64_t kRuns = 16384;
  const auto per_window = static_cast<std::uint64_t>(state.range(0));
  const ExtentList list = ExtentList::normalize(strided_runs(kRuns));
  ExtentList clip;
  for (auto _ : state) {
    mcio::util::ExtentCursor cursor(list);
    std::uint64_t total = 0;
    for (std::uint64_t pos = 1024; pos < kRuns * 4096;
         pos += per_window * 4096) {
      cursor.clipped_into(Extent{pos, per_window * 4096}, &clip);
      total += clip.size();
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kRuns));
}
BENCHMARK(BM_ExtentCursorSweep)->Arg(4)->Arg(256);

// The IOR shape of the same sweep: 16 sources of interleaved 4 KiB
// blocks, so each 4 KiB window clips one block from one source and
// nothing from the other 15. Empty clips dominate; items are clips.
void BM_ExtentCursorSparseSweep(benchmark::State& state) {
  constexpr std::uint64_t kSources = 16;
  constexpr std::uint64_t kBlocks = 1024;
  std::vector<ExtentList> lists;
  for (std::uint64_t s = 0; s < kSources; ++s) {
    std::vector<Extent> runs;
    for (std::uint64_t i = 0; i < kBlocks; ++i) {
      runs.push_back(Extent{(i * kSources + s) * 4096 + 1, 4094});
    }
    lists.push_back(ExtentList::normalize(std::move(runs)));
  }
  ExtentList clip;
  for (auto _ : state) {
    std::vector<mcio::util::ExtentCursor> cursors(lists.begin(), lists.end());
    std::uint64_t total = 0;
    for (std::uint64_t w = 0; w < kSources * kBlocks; ++w) {
      for (mcio::util::ExtentCursor& cursor : cursors) {
        cursor.clipped_into(Extent{w * 4096, 4096}, &clip);
        total += clip.size();
      }
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kSources * kSources *
                                                    kBlocks));
}
BENCHMARK(BM_ExtentCursorSparseSweep);

// Decoded wire lists, plans and flattened datatypes arrive normalized;
// the list round-trips through its own storage, so nothing is copied.
void BM_NormalizeNormalized(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  std::vector<Extent> runs = strided_runs(n);
  for (auto _ : state) {
    runs = ExtentList::normalize(std::move(runs)).runs();
    benchmark::DoNotOptimize(runs.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_NormalizeNormalized)->Arg(1024)->Arg(16384);

// A window's cover: `range(0)` sources whose runs interleave (source s
// holds every S-th run of a 4096-run stride) merged one after another
// into one reused list, as Sweep::clip does.
void BM_MergeInterleavedCover(benchmark::State& state) {
  constexpr std::uint64_t kRuns = 4096;
  const auto sources = static_cast<std::uint64_t>(state.range(0));
  std::vector<ExtentList> lists;
  for (std::uint64_t s = 0; s < sources; ++s) {
    std::vector<Extent> runs;
    for (std::uint64_t i = s; i < kRuns; i += sources) {
      runs.push_back(Extent{i * 4096, 2048});
    }
    lists.push_back(ExtentList::normalize(std::move(runs)));
  }
  ExtentList cover;
  for (auto _ : state) {
    cover.clear();
    for (const ExtentList& l : lists) cover.merge(l);
    benchmark::DoNotOptimize(cover.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kRuns));
}
BENCHMARK(BM_MergeInterleavedCover)->Arg(2)->Arg(8)->Arg(32);

}  // namespace

int main(int argc, char** argv) {
  return mcio::bench::micro_main(argc, argv, "micro_datatype");
}
