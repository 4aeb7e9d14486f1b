#include "sim/fiber.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>

#include "util/check.h"

namespace mcio::sim {

namespace {

std::size_t page_size() {
  static const std::size_t size =
      static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return size;
}

std::size_t round_up_to_page(std::size_t n) {
  const std::size_t p = page_size();
  return (n + p - 1) / p * p;
}

}  // namespace

FiberStack::FiberStack(std::size_t usable_bytes) {
  MCIO_CHECK_GE(usable_bytes, 16u * 1024u);
  guard_bytes_ = page_size();
  map_bytes_ = guard_bytes_ + round_up_to_page(usable_bytes);
  void* map = mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  MCIO_CHECK_MSG(map != MAP_FAILED,
                 "fiber stack mmap of " << map_bytes_ << " bytes failed");
  map_ = static_cast<char*>(map);
  // The guard page sits *below* the stack: x86-64/common ABIs grow stacks
  // downward, so overflow runs off base() into the unmapped page.
  MCIO_CHECK_EQ(mprotect(map_, guard_bytes_, PROT_NONE), 0);
}

FiberStack::~FiberStack() {
  if (map_ != nullptr) munmap(map_, map_bytes_);
}

}  // namespace mcio::sim

#if defined(MCIO_FIBER_FAST_SWITCH)

extern "C" {
void mcio_fiber_switch(void** save_sp, void* target_sp);
void mcio_fiber_entry();
}

namespace mcio::sim {

// Called from the asm entry thunk on a fiber's first activation.
void run_fiber_trampoline(Fiber* self) {
  self->body_();
  // The body returned normally: hand control back to the link context.
  // The scheduler never resumes a finished fiber, so this does not return.
  mcio_fiber_switch(&self->ctx_, *self->link_);
  MCIO_CHECK_MSG(false, "finished fiber resumed");
}

}  // namespace mcio::sim

extern "C" void mcio_fiber_trampoline(void* self) {
  mcio::sim::run_fiber_trampoline(static_cast<mcio::sim::Fiber*>(self));
}

namespace mcio::sim {

Fiber::Fiber(std::size_t stack_bytes, std::function<void()> body,
             FiberContext* link)
    : stack_(stack_bytes), link_(link), body_(std::move(body)) {
  // Build the frame mcio_fiber_switch expects to unwind, so the first
  // resume "returns" into the entry thunk with r12 = this. Layout below
  // `top` (16-byte aligned), one 8-byte slot each:
  //   -8  dead slot (keeps the thunk's stack call-convention aligned)
  //   -16 return address = mcio_fiber_entry
  //   -24 rbp   -32 rbx   -40 r12 = this
  //   -48 r13   -56 r14   -64 r15
  //   -72 MXCSR (4 bytes) + x87 control word (2 bytes)
  char* top = stack_.top();
  top -= reinterpret_cast<std::uintptr_t>(top) % 16;
  auto put = [top](int offset, std::uint64_t v) {
    std::memcpy(top - offset, &v, sizeof(v));
  };
  std::uint32_t mxcsr = 0;
  std::uint16_t fcw = 0;
  asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(fcw));
  put(8, 0);
  put(16, reinterpret_cast<std::uint64_t>(&mcio_fiber_entry));
  put(24, 0);
  put(32, 0);
  put(40, reinterpret_cast<std::uint64_t>(this));
  put(48, 0);
  put(56, 0);
  put(64, 0);
  put(72, mxcsr | (static_cast<std::uint64_t>(fcw) << 32));
  ctx_ = top - 72;
}

void Fiber::resume_from(FiberContext* from) {
  mcio_fiber_switch(from, ctx_);
}

void Fiber::yield_to(FiberContext* to) { mcio_fiber_switch(&ctx_, *to); }

}  // namespace mcio::sim

#else  // portable ucontext fallback

#if defined(__SANITIZE_ADDRESS__)
#define MCIO_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MCIO_ASAN_FIBERS 1
#endif
#endif
#if defined(MCIO_ASAN_FIBERS)
#include <sanitizer/common_interface_defs.h>
#endif

namespace mcio::sim {

namespace {

// ASan tracks one stack per thread. Announcing every switch between the
// scheduler's stack and a fiber's keeps its view current, so a check that
// throws inside a fiber unpoisons the fiber's stack, not the scheduler's.
void start_switch([[maybe_unused]] void** fake_stack,
                  [[maybe_unused]] const void* bottom,
                  [[maybe_unused]] std::size_t size) {
#if defined(MCIO_ASAN_FIBERS)
  __sanitizer_start_switch_fiber(fake_stack, bottom, size);
#endif
}

void finish_switch([[maybe_unused]] void* fake_stack,
                   [[maybe_unused]] const void** bottom_old,
                   [[maybe_unused]] std::size_t* size_old) {
#if defined(MCIO_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(fake_stack, bottom_old, size_old);
#endif
}

}  // namespace

// makecontext() can only pass integer arguments, so the Fiber pointer
// crosses as two 32-bit halves. The split/reassembly is only sound on
// the layouts we rely on; pin them down at compile time (ISSUE 8):
//  - a pointer must fit in two unsigned halves,
//  - `unsigned` must hold a full 32-bit half, and
//  - the reassembly below must widen *zero*-extended: uintptr_t casts of
//    unsigned never sign-extend, unlike casts of plain int (makecontext's
//    declared variadic type), which would smear bit 31 of the low half
//    across the high word on LP64.
static_assert(sizeof(void*) <= 2 * sizeof(unsigned),
              "Fiber* does not fit in two makecontext words");
static_assert(sizeof(unsigned) * 8 >= 32,
              "unsigned cannot carry a 32-bit pointer half");
static_assert(static_cast<std::uintptr_t>(
                  static_cast<unsigned>(0x80000000u)) == 0x80000000u,
              "unsigned->uintptr_t must zero-extend");

void Fiber::trampoline(unsigned hi, unsigned lo) {
  // Reassemble in uint64 (not uintptr_t) so the shift is well-defined on
  // 32-bit targets too, then narrow to the pointer width.
  const std::uint64_t bits = (static_cast<std::uint64_t>(hi) << 32) |
                             static_cast<std::uint64_t>(lo);
  auto* self =
      reinterpret_cast<Fiber*>(static_cast<std::uintptr_t>(bits));
  finish_switch(nullptr, &self->link_bottom_, &self->link_size_);
  self->body_();
  // Returning lets ucontext fall through to ctx_.uc_link (the scheduler);
  // the null fake-stack slot tells ASan this fiber is done.
  start_switch(nullptr, self->link_bottom_, self->link_size_);
}

Fiber::Fiber(std::size_t stack_bytes, std::function<void()> body,
             FiberContext* link)
    : stack_(stack_bytes), link_(link), body_(std::move(body)) {
  MCIO_CHECK_EQ(getcontext(&ctx_), 0);
  ctx_.uc_stack.ss_sp = stack_.base();
  ctx_.uc_stack.ss_size = stack_.usable_bytes();
  ctx_.uc_link = link;
  const auto ptr =
      static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(this));
  const auto hi = static_cast<unsigned>(ptr >> 32);
  const auto lo = static_cast<unsigned>(ptr & 0xffffffffu);
  // Runtime half of the static_asserts: the exact halves we are about to
  // hand makecontext must reassemble to this Fiber.
  MCIO_CHECK_EQ(
      (static_cast<std::uint64_t>(hi) << 32) | static_cast<std::uint64_t>(lo),
      ptr);
  makecontext(&ctx_, reinterpret_cast<void (*)()>(&Fiber::trampoline), 2,
              hi, lo);
}

void Fiber::resume_from(FiberContext* from) {
  void* fake_stack = nullptr;
  start_switch(&fake_stack, stack_.base(), stack_.usable_bytes());
  MCIO_CHECK_EQ(swapcontext(from, &ctx_), 0);
  finish_switch(fake_stack, nullptr, nullptr);
}

void Fiber::yield_to(FiberContext* to) {
  void* fake_stack = nullptr;
  start_switch(&fake_stack, link_bottom_, link_size_);
  MCIO_CHECK_EQ(swapcontext(&ctx_, to), 0);
  finish_switch(fake_stack, &link_bottom_, &link_size_);
}

}  // namespace mcio::sim

#endif  // MCIO_FIBER_FAST_SWITCH
