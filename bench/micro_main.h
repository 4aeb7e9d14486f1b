// Shared main() for the google-benchmark micros: adds the `--json[=path]`
// and `--no-audit` switches the figure benches have (see common.h). The
// document is the benches' one mcio-bench-v2 schema, written by
// bench::JsonReporter, with one point per benchmark run carrying its
// per-iteration times and rate counters next to the usual console output.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "common.h"

namespace mcio::bench {

namespace internal {

/// ConsoleReporter that also records every run as a JSON point. Runs are
/// reported as each benchmark finishes, so a point's wall clock and
/// allocation peak cover that benchmark.
class PointReporter : public benchmark::ConsoleReporter {
 public:
  explicit PointReporter(JsonReporter& rep) : rep_(rep) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      const double iters = run.iterations > 0
                               ? static_cast<double>(run.iterations)
                               : 1.0;
      util::Json& p =
          rep_.add_point(run.benchmark_name())
              .set("iterations", static_cast<std::int64_t>(run.iterations))
              .set("real_s_per_iter", run.real_accumulated_time / iters)
              .set("cpu_s_per_iter", run.cpu_accumulated_time / iters);
      for (const auto& [key, counter] : run.counters) {
        p.set(key, counter.value);
      }
    }
    benchmark::ConsoleReporter::ReportRuns(reports);
  }

 private:
  JsonReporter& rep_;
};

}  // namespace internal

/// Drop-in replacement for BENCHMARK_MAIN()'s body: hands `--json[=path]`
/// and `--no-audit` to a util::Cli and every other argument to
/// google-benchmark (which rejects flags it does not know), runs the
/// registered benchmarks, and writes BENCH_<name>.json when asked to.
inline int micro_main(int argc, char** argv, const char* name) {
  std::vector<char*> ours{argv[0]};
  std::vector<char*> args{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const bool mine = std::strcmp(argv[i], "--json") == 0 ||
                      std::strncmp(argv[i], "--json=", 7) == 0 ||
                      std::strcmp(argv[i], "--no-audit") == 0;
    (mine ? ours : args).push_back(argv[i]);
  }
  const util::Cli cli(static_cast<int>(ours.size()), ours.data());
  JsonReporter rep(cli, name);
  configure_audit(cli);
  cli.check_unused();

  int args_argc = static_cast<int>(args.size());
  benchmark::Initialize(&args_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_argc, args.data())) {
    return 1;
  }
  internal::PointReporter reporter(rep);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  rep.write();
  return 0;
}

}  // namespace mcio::bench
