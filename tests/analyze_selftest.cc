// Self-test for mcio-analyze — replays the fixture corpus in
// tests/analyze_fixtures/ through the analyzer library and asserts the
// exact diagnostics each fixture declares, then scans the real tree and
// asserts it is clean. The fixtures are the executable specification of
// the rule catalog (DESIGN.md §13): a rule change that shifts a line or
// drops a diagnostic fails here, not in review.
//
// Fixture header grammar (first comment lines of each file):
//   // mcio-analyze-fixture: path=<virtual path> [group=<name>]
//   // expect: clean | <rule>@<line> [<rule>@<line> ...]
//   // expect-suppressed: <rule>@<line> [...]        (optional)
//
// Files sharing a group= are fed to one Analyzer run so cross-file rules
// (lock-order-cycle) see both sides; ungrouped files each get their own
// run. The virtual path= controls path-scoped rules, so a fixture can
// pretend to live in src/sim without being compiled into the simulator.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "tools/analyze/analyzer.h"

namespace {

namespace fs = std::filesystem;
using mcio::analyze::Analyzer;
using mcio::analyze::Finding;

// (rule, line, suppressed) within one virtual path.
using Expectation = std::tuple<std::string, int, bool>;

struct Fixture {
  std::string file_name;     // on-disk name, for messages
  std::string virtual_path;  // path= from the header
  std::string group;         // group= or "" for a solo run
  std::string content;
  std::vector<Expectation> expected;
};

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read fixture " << p;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// Parses "<rule>@<line>" tokens from the tail of an expect line.
void parse_expect_tokens(const std::string& tail, bool suppressed,
                         const std::string& file_name,
                         std::vector<Expectation>* out) {
  std::istringstream is(tail);
  std::string tok;
  while (is >> tok) {
    const std::size_t at = tok.find('@');
    ASSERT_NE(at, std::string::npos)
        << file_name << ": malformed expect token '" << tok << "'";
    const std::string rule = tok.substr(0, at);
    const int line = std::stoi(tok.substr(at + 1));
    out->emplace_back(rule, line, suppressed);
  }
}

Fixture parse_fixture(const fs::path& p) {
  Fixture fx;
  fx.file_name = p.filename().string();
  fx.content = read_file(p);

  std::istringstream lines(fx.content);
  std::string line;
  bool saw_expect = false;
  while (std::getline(lines, line)) {
    if (line.rfind("// mcio-analyze-fixture:", 0) == 0) {
      std::istringstream is(line.substr(sizeof("// mcio-analyze-fixture:")));
      std::string kv;
      while (is >> kv) {
        if (kv.rfind("path=", 0) == 0) fx.virtual_path = kv.substr(5);
        if (kv.rfind("group=", 0) == 0) fx.group = kv.substr(6);
      }
    } else if (line.rfind("// expect:", 0) == 0) {
      saw_expect = true;
      const std::string tail = line.substr(sizeof("// expect:"));
      if (tail.find("clean") == std::string::npos) {
        parse_expect_tokens(tail, /*suppressed=*/false, fx.file_name,
                            &fx.expected);
      }
    } else if (line.rfind("// expect-suppressed:", 0) == 0) {
      parse_expect_tokens(line.substr(sizeof("// expect-suppressed:")),
                          /*suppressed=*/true, fx.file_name, &fx.expected);
    } else if (line.rfind("//", 0) != 0) {
      break;  // header is the leading comment block only
    }
  }
  EXPECT_FALSE(fx.virtual_path.empty())
      << fx.file_name << ": missing 'path=' in fixture header";
  EXPECT_TRUE(saw_expect) << fx.file_name << ": missing '// expect:' line";
  return fx;
}

std::vector<Fixture> load_corpus() {
  std::vector<fs::path> paths;
  for (const auto& entry : fs::directory_iterator(MCIO_ANALYZE_FIXTURE_DIR)) {
    if (entry.is_regular_file()) paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<Fixture> corpus;
  corpus.reserve(paths.size());
  for (const auto& p : paths) corpus.push_back(parse_fixture(p));
  return corpus;
}

// Runs one group of fixtures through a shared Analyzer and diffs the
// (path, line, rule, suppressed) sets in both directions.
void check_group(const std::vector<const Fixture*>& group) {
  Analyzer analyzer;
  std::set<std::tuple<std::string, int, std::string, bool>> expected;
  for (const Fixture* fx : group) {
    analyzer.add_file(fx->virtual_path, fx->content);
    for (const auto& [rule, line, suppressed] : fx->expected) {
      expected.emplace(fx->virtual_path, line, rule, suppressed);
    }
  }
  std::set<std::tuple<std::string, int, std::string, bool>> actual;
  for (const Finding& f : analyzer.finish()) {
    actual.emplace(f.path, f.line, f.rule, f.suppressed);
  }
  for (const auto& e : expected) {
    EXPECT_TRUE(actual.count(e))
        << "expected finding missing: " << std::get<0>(e) << ":"
        << std::get<1>(e) << " [" << std::get<2>(e) << "]"
        << (std::get<3>(e) ? " (suppressed)" : "");
  }
  for (const auto& a : actual) {
    EXPECT_TRUE(expected.count(a))
        << "unexpected finding: " << std::get<0>(a) << ":" << std::get<1>(a)
        << " [" << std::get<2>(a) << "]"
        << (std::get<3>(a) ? " (suppressed)" : "");
  }
}

TEST(AnalyzeFixtures, CorpusMatchesExpectations) {
  const std::vector<Fixture> corpus = load_corpus();
  ASSERT_GE(corpus.size(), 10u) << "fixture corpus went missing";

  std::map<std::string, std::vector<const Fixture*>> groups;
  for (const Fixture& fx : corpus) {
    // Ungrouped fixtures run solo under a key no group= can collide with.
    const std::string key =
        fx.group.empty() ? "solo/" + fx.file_name : fx.group;
    groups[key].push_back(&fx);
  }
  for (const auto& [key, members] : groups) {
    SCOPED_TRACE("fixture group: " + key);
    check_group(members);
  }
}

// Every rule the analyzer knows is pinned by at least one fixture, so a
// new rule cannot land without an executable example.
TEST(AnalyzeFixtures, CorpusCoversEveryRule) {
  std::set<std::string> rules;
  for (const Fixture& fx : load_corpus()) {
    for (const auto& [rule, line, suppressed] : fx.expected) {
      rules.insert(rule);
    }
  }
  const auto& known = mcio::analyze::all_rules();
  for (const std::string& r : known) {
    EXPECT_TRUE(rules.count(r) != 0)
        << "no fixture expects rule '" << r << "'; add a known-bad fixture";
  }
  for (const std::string& r : rules) {
    EXPECT_TRUE(std::find(known.begin(), known.end(), r) != known.end())
        << "fixture expects unknown rule '" << r << "'";
  }
}

// The real tree must be clean: every finding in src/, bench/, tests/ and
// tools/ is either fixed or carries a justified inline suppression. This
// is the same bar CI enforces with the mcio-analyze binary.
TEST(AnalyzeRepo, TreeIsClean) {
  Analyzer analyzer;
  for (const char* dir : {"/src", "/bench", "/tests", "/tools"}) {
    ASSERT_TRUE(analyzer.add_path(std::string(MCIO_REPO_ROOT) + dir));
  }
  std::vector<std::string> unsuppressed;
  for (const Finding& f : analyzer.finish()) {
    if (!f.suppressed) unsuppressed.push_back(mcio::analyze::format_finding(f));
  }
  EXPECT_TRUE(unsuppressed.empty()) << [&] {
    std::ostringstream os;
    os << unsuppressed.size() << " unsuppressed finding(s):\n";
    for (const std::string& s : unsuppressed) os << "  " << s << "\n";
    return os.str();
  }();
}

}  // namespace
