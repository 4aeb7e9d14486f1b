// Host worker pool: runs independent tasks on a few OS threads. The
// figure benches spread sweep points over it and fuzz_driver its oracle
// runs. Each task builds its own simulation stack, so the pool changes
// host wall time only, never a simulated number (DESIGN.md §12).
#pragma once

#include <algorithm>
#include <atomic>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace mcio::util {

/// First-exception slot shared by a worker pool: workers capture under
/// the capability, the pool owner takes after the join. Guarded so the
/// clang thread-safety analysis (DESIGN.md §13) checks the discipline.
struct FirstError {
  Mutex mu;
  std::exception_ptr error MCIO_GUARDED_BY(mu);

  /// Records the current exception if it is the first one.
  void capture() MCIO_EXCLUDES(mu) {
    const MutexLock lock(mu);
    if (!error) error = std::current_exception();
  }

  /// Returns the first captured exception (call after joining workers).
  std::exception_ptr take() MCIO_EXCLUDES(mu) {
    const MutexLock lock(mu);
    return error;
  }
};

/// Runs tasks 0..n-1 on up to `threads` host threads, each worker taking
/// the next index from a shared counter. threads <= 1 is a plain
/// sequential loop. Tasks must be independent; any shared mutable state
/// they touch needs its own lock. The first task exception is rethrown
/// after all workers drain.
inline void parallel_for(int threads, int n,
                         const std::function<void(int)>& fn) {
  if (threads <= 1 || n <= 1) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<int> next{0};
  FirstError first_error;
  auto worker = [&] {
    for (;;) {
      const int i = next.fetch_add(1);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        first_error.capture();
      }
    }
  };
  std::vector<std::thread> pool;
  const int width = std::min(threads, n);
  pool.reserve(static_cast<std::size_t>(width));
  for (int t = 0; t < width; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  if (std::exception_ptr e = first_error.take()) std::rethrow_exception(e);
}

}  // namespace mcio::util
