// mcio-analyze-fixture: path=tests/time_seeded_rng_bad.cc
// expect: time-seeded-rng@13 time-seeded-rng@14 time-seeded-rng@15 time-seeded-rng@18 time-seeded-rng@19 time-seeded-rng@20
#include <chrono>
#include <cstdint>
#include <ctime>
#include <random>

#include "util/rng.h"

namespace mcio {

void unreplayable() {
  std::mt19937 gen(std::random_device{}());
  std::mt19937_64 wide(static_cast<std::uint64_t>(time(nullptr)));
  util::Rng rng(
      std::chrono::steady_clock::now().time_since_epoch().count());
  std::default_random_engine eng;
  eng.seed(clock());
  std::minstd_rand fast{std::random_device{}()};
  std::ranlux48 lux(static_cast<std::uint64_t>(
      std::chrono::system_clock::now().time_since_epoch().count()));
  (void)gen, (void)wide, (void)rng, (void)eng, (void)fast, (void)lux;
}

void replayable(std::uint64_t seed, util::Rng& shared, const Sim& sim) {
  std::mt19937 gen(42);
  util::Rng rng(seed);
  util::Rng by_virtual_time(seed ^ sim.time());  // simulated, not host, time
  const auto t0 = std::chrono::steady_clock::now();  // timing, not seeding
  std::minstd_rand eng;
  eng.seed(7);
  shared.uniform_u64(6);
  (void)gen, (void)rng, (void)by_virtual_time, (void)t0;
}

// A function body ends the statement that starts at its return type.
struct Stream {
  util::Rng fork() const { return util::Rng(seed); }
  std::chrono::nanoseconds budget{0};
  std::uint64_t seed = 1;
};

}  // namespace mcio
