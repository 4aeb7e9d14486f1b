// mcio-analyze-fixture: path=src/core/raw_random_bad.cc
// expect: raw-random@3 raw-random@7 raw-random@10
#include <random>

namespace mcio::core {

int draw() { std::mt19937 gen(42); return static_cast<int>(gen()); }

int roll() {
  return rand() % 6;
}

}  // namespace mcio::core
