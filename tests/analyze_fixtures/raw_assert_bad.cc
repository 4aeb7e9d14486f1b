// mcio-analyze-fixture: path=tests/raw_assert_bad.cc
// expect: raw-assert@11 raw-assert@12
#include <cassert>
#include <vector>

#include "util/check.h"

namespace mcio {

void check_sizes(const std::vector<int>& v) {
  assert(!v.empty());
  assert (v.size() < 1024);
  static_assert(sizeof(int) >= 4, "compile-time checks are fine");
  MCIO_CHECK(!v.empty());
  debug_assert(v.front() >= 0);  // a different identifier
  // assert(v.size() > 0);  comments are not code
  const char* msg = "assert(false)";  // neither are strings
  (void)msg;
}

}  // namespace mcio
