// mcio-analyze-fixture: path=tests/lint_allow_ignored.cc
// expect: raw-assert@8
// The retired regex linter's suppression comment below is now plain
// text; only a justified mcio-analyze allow() comment suppresses.
#include <cassert>

void legacy(int x) {
  assert(x > 0);  // lint:allow raw-assert
}
