// mcio-analyze CLI. Run from the repository root:
//
//   ./build/tools/analyze/mcio-analyze [paths...]
//
// Defaults to `src bench tests tools` (the surface CI keeps clean). Exits 0
// when every finding is suppressed with a justification, 1 on any
// unsuppressed finding, 2 on usage/IO errors.
#include <cstdio>
#include <string>
#include <vector>

#include "tools/analyze/analyzer.h"

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: mcio-analyze [--list-rules] [--show-suppressed] [paths...]\n"
      "  paths default to: src bench tests tools (run from the repo root)\n"
      "  suppression: // mcio-analyze: allow(<rule>) -- <justification>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  bool show_suppressed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-rules") {
      for (const std::string& r : mcio::analyze::all_rules()) {
        std::printf("%s\n", r.c_str());
      }
      return 0;
    }
    if (arg == "--show-suppressed") {
      show_suppressed = true;
      continue;
    }
    if (arg == "--help" || arg == "-h" || arg.rfind("--", 0) == 0) {
      return usage();
    }
    paths.push_back(arg);
  }
  if (paths.empty()) paths = {"src", "bench", "tests", "tools"};

  mcio::analyze::Analyzer analyzer;
  for (const std::string& p : paths) {
    if (!analyzer.add_path(p)) {
      std::fprintf(stderr, "mcio-analyze: cannot read %s\n", p.c_str());
      return 2;
    }
  }

  int unsuppressed = 0;
  int suppressed = 0;
  for (const mcio::analyze::Finding& f : analyzer.finish()) {
    if (f.suppressed) {
      ++suppressed;
      if (show_suppressed) {
        std::printf("%s\n", mcio::analyze::format_finding(f).c_str());
      }
      continue;
    }
    ++unsuppressed;
    std::printf("%s\n", mcio::analyze::format_finding(f).c_str());
  }
  if (unsuppressed > 0) {
    std::fprintf(stderr, "mcio-analyze: %d finding(s) (%d suppressed)\n",
                 unsuppressed, suppressed);
    return 1;
  }
  std::fprintf(stderr, "mcio-analyze: clean (%d suppressed finding(s))\n",
               suppressed);
  return 0;
}
