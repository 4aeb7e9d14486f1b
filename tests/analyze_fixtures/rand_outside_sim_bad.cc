// mcio-analyze-fixture: path=tests/rand_outside_sim_bad.cc
// expect: raw-random@10 raw-random@11 raw-random@12
#include <cstdlib>
#include <random>

#include "util/rng.h"

namespace mcio {

void reseed() { std::srand(42); }
int roll() { return std::rand() % 6; }
int bare() { return rand(); }

// Engines and member rand() are fine outside the deterministic dirs.
int replayable(util::Rng& rng, util::Rng* other) {
  std::mt19937 gen(7);
  const auto a = rng.rand();
  const auto b = other->rand();
  return static_cast<int>(a + b + gen());
}

}  // namespace mcio
