// mcio-analyze-fixture: path=src/sim/banned_include_bad.cc
// expect: wall-clock@3 raw-random@4
#include <ctime>
#include <random>
#include <chrono>
#include <cstdint>
#include "sim/random.h"  // a project header named like the banned one

namespace mcio::sim {

std::uint64_t virtual_ticks(std::uint64_t ns) { return ns / 1000; }

}  // namespace mcio::sim
