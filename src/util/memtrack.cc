// Global operator new/delete replacements feeding the thread-local
// counters of memtrack.h.
//
// All variants funnel through malloc/free so sanitizer builds keep their
// heap instrumentation (ASan/TSan intercept malloc, not these symbols),
// and malloc_usable_size() gives one consistent size for both sides of
// the ledger — including the unsized operator delete, which has no other
// way to know what it is releasing.

#include "util/memtrack.h"

#include <cstdlib>
#include <new>

#if __has_include(<malloc.h>)
#include <malloc.h>
#define MCIO_HAVE_MALLOC_USABLE_SIZE 1
#endif

namespace mcio::util::memtrack {
namespace {

// Trivially-initialized TLS: safe to touch from allocations that run
// before main() or during static destruction.
thread_local std::int64_t tls_live = 0;
thread_local std::int64_t tls_peak = 0;
thread_local std::uint64_t tls_allocated = 0;
thread_local std::uint64_t tls_allocations = 0;

std::size_t block_size(void* p, [[maybe_unused]] std::size_t requested) {
#if defined(MCIO_HAVE_MALLOC_USABLE_SIZE)
  return malloc_usable_size(p);
#else
  (void)p;
  return requested;
#endif
}

void note_alloc(void* p, std::size_t requested) {
  if (p == nullptr) return;
  const auto n = static_cast<std::int64_t>(block_size(p, requested));
  tls_live += n;
  tls_allocated += static_cast<std::uint64_t>(n);
  ++tls_allocations;
  if (tls_live > tls_peak) tls_peak = tls_live;
}

void note_free(void* p) {
  if (p == nullptr) return;
  tls_live -= static_cast<std::int64_t>(block_size(p, 0));
}

void* alloc_or_throw(std::size_t size) {
  if (size == 0) size = 1;
  for (;;) {
    void* p = std::malloc(size);
    if (p != nullptr) {
      note_alloc(p, size);
      return p;
    }
    std::new_handler h = std::get_new_handler();
    if (h == nullptr) throw std::bad_alloc();
    h();
  }
}

void* alloc_aligned_or_throw(std::size_t size, std::size_t align) {
  if (size == 0) size = 1;
  for (;;) {
    void* p = nullptr;
    if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                       size) == 0) {
      note_alloc(p, size);
      return p;
    }
    std::new_handler h = std::get_new_handler();
    if (h == nullptr) throw std::bad_alloc();
    h();
  }
}

}  // namespace

void reset() {
  tls_live = 0;
  tls_peak = 0;
  tls_allocated = 0;
  tls_allocations = 0;
}

std::int64_t live_bytes() { return tls_live; }

std::uint64_t peak_bytes() {
  return tls_peak > 0 ? static_cast<std::uint64_t>(tls_peak) : 0;
}

std::uint64_t allocated_bytes() { return tls_allocated; }

std::uint64_t allocations() { return tls_allocations; }

}  // namespace mcio::util::memtrack

namespace {
// Anonymous-namespace members are visible through the enclosing namespace
// within this TU; short aliases keep the operator bodies readable.
constexpr auto* note_free = &mcio::util::memtrack::note_free;
constexpr auto* alloc_or_throw = &mcio::util::memtrack::alloc_or_throw;
constexpr auto* alloc_aligned_or_throw =
    &mcio::util::memtrack::alloc_aligned_or_throw;
}  // namespace

void* operator new(std::size_t size) { return alloc_or_throw(size); }
void* operator new[](std::size_t size) { return alloc_or_throw(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return alloc_or_throw(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return alloc_or_throw(size);
  } catch (...) {
    return nullptr;
  }
}

void* operator new(std::size_t size, std::align_val_t align) {
  return alloc_aligned_or_throw(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return alloc_aligned_or_throw(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return alloc_aligned_or_throw(size, static_cast<std::size_t>(align));
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  try {
    return alloc_aligned_or_throw(size, static_cast<std::size_t>(align));
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept {
  note_free(p);
  std::free(p);
}
void operator delete[](void* p) noexcept {
  note_free(p);
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept {
  note_free(p);
  std::free(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  note_free(p);
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  note_free(p);
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  note_free(p);
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  note_free(p);
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  note_free(p);
  std::free(p);
}
void operator delete(void* p, std::align_val_t, std::size_t) noexcept {
  note_free(p);
  std::free(p);
}
void operator delete[](void* p, std::align_val_t, std::size_t) noexcept {
  note_free(p);
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  note_free(p);
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  note_free(p);
  std::free(p);
}
