// mcio-analyze-fixture: path=src/core/untagged_narrowing_bad.cc
// expect: untagged-narrowing@10 untagged-narrowing@11 untagged-narrowing@12
#include <cstdint>
#include <vector>

namespace mcio::core {

void narrowing(const std::vector<int>& v) {
  const std::vector<int>* p = &v;
  int a = v.size();
  std::int32_t b(p->front() + v.size());
  int n =
      v.size();
  (void)a, (void)b, (void)n;
}

void tagged(const std::vector<int>& v) {
  const int a = static_cast<int>(v.size());
  std::int32_t b(static_cast<std::int32_t>(v.size()));
  const std::size_t n = v.size();
  std::vector<int> copy(v.size());
  for (int i = 0; i + 1 < static_cast<int>(v.size()); ++i) {
  }
  (void)a, (void)b, (void)n;
}

int size_of(const std::vector<int>& v) { return static_cast<int>(v.size()); }

}  // namespace mcio::core
