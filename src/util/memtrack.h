// Per-thread tracked-allocation accounting.
//
// The bench harness needs a *per-point* peak-memory figure. The obvious
// source, getrusage()'s ru_maxrss, is a process-lifetime high-water mark:
// in a multi-point sweep every later point inherits the maximum of all
// earlier points, so per-point regressions are invisible (see ISSUE 8).
// Instead, the global operator new/delete (memtrack.cc) feed thread-local
// counters: live tracked bytes and their high-water mark, resettable at
// each point boundary. A sweep point runs entirely on one thread (the
// bench pool pins one point per task), so the thread-local peak is the
// point's peak.
//
// The counters measure allocator-visible bytes (malloc_usable_size), not
// resident pages — relative comparisons across points and revisions are
// what the perf harness tracks, and those need identical accounting, not
// OS-level truth. Frees of blocks allocated on another thread can drive
// the live counter negative; the reported peak clamps at the reset point.
#pragma once

#include <cstdint>

namespace mcio::util::memtrack {

/// Starts a fresh accounting window on the calling thread: live bytes and
/// high-water both rebase to "now".
void reset();

/// Bytes allocated minus freed on this thread since reset() (may be
/// transiently negative when another thread's blocks are freed here).
std::int64_t live_bytes();

/// High-water mark of live_bytes() since reset(), clamped at >= 0.
std::uint64_t peak_bytes();

/// Total bytes ever allocated on this thread since reset().
std::uint64_t allocated_bytes();

/// Number of allocations made on this thread since reset().
std::uint64_t allocations();

}  // namespace mcio::util::memtrack
