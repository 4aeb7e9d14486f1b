#include "tools/analyze/analyzer.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace mcio::analyze {

namespace {

// ---------------------------------------------------------------------------
// Blanking: comments and string/char literals become spaces (newlines are
// preserved, so every later pass reports exact source lines). Comment text
// is kept aside per line — suppressions live in comments.

struct BlankResult {
  std::string code;                  ///< literals/comments blanked
  std::map<int, std::string> comments;  ///< line -> concatenated comments
};

BlankResult blank(const std::string& in) {
  BlankResult out;
  out.code.reserve(in.size());
  enum class St { kCode, kLine, kBlock, kStr, kChr, kRaw };
  St st = St::kCode;
  std::string raw_delim;
  int line = 1;
  std::string comment;
  int comment_line = 0;
  const auto flush_comment = [&] {
    if (!comment.empty()) {
      out.comments[comment_line] += comment;
      comment.clear();
    }
  };
  for (std::size_t i = 0; i < in.size(); ++i) {
    const char c = in[i];
    const char next = i + 1 < in.size() ? in[i + 1] : '\0';
    if (c == '\n') ++line;
    switch (st) {
      case St::kCode:
        if (c == '/' && next == '/') {
          st = St::kLine;
          comment_line = line;
          out.code += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          st = St::kBlock;
          comment_line = line;
          out.code += "  ";
          ++i;
        } else if (c == '"') {
          // R"delim( ... )delim" — raw string?
          bool raw = false;
          if (i > 0 && in[i - 1] == 'R') {
            std::size_t j = i + 1;
            while (j < in.size() && in[j] != '(' && in[j] != '\n' &&
                   j - i <= 17) {
              ++j;
            }
            if (j < in.size() && in[j] == '(') {
              raw = true;
              raw_delim = ")" + in.substr(i + 1, j - i - 1) + "\"";
              out.code.append(j - i + 1, ' ');
              i = j;
            }
          }
          if (raw) {
            st = St::kRaw;
          } else {
            st = St::kStr;
            out.code += '"';
          }
        } else if (c == '\'') {
          st = St::kChr;
          out.code += '\'';
        } else {
          out.code += c;
        }
        break;
      case St::kLine:
        if (c == '\n') {
          st = St::kCode;
          flush_comment();
          out.code += '\n';
        } else {
          comment += c;
          out.code += ' ';
        }
        break;
      case St::kBlock:
        if (c == '*' && next == '/') {
          st = St::kCode;
          flush_comment();
          out.code += "  ";
          ++i;
        } else {
          if (c == '\n') {
            flush_comment();
            comment_line = line;
            out.code += '\n';
          } else {
            comment += c;
            out.code += ' ';
          }
        }
        break;
      case St::kStr:
        if (c == '\\' && next != '\0') {
          out.code += "  ";
          ++i;
          if (next == '\n') ++line, out.code.back() = '\n';
        } else if (c == '"') {
          st = St::kCode;
          out.code += '"';
        } else {
          out.code += c == '\n' ? '\n' : ' ';
        }
        break;
      case St::kChr:
        if (c == '\\' && next != '\0') {
          out.code += "  ";
          ++i;
        } else if (c == '\'') {
          st = St::kCode;
          out.code += '\'';
        } else {
          out.code += c == '\n' ? '\n' : ' ';
        }
        break;
      case St::kRaw:
        if (in.compare(i, raw_delim.size(), raw_delim) == 0) {
          out.code.append(raw_delim.size(), ' ');
          i += raw_delim.size() - 1;
          st = St::kCode;
        } else {
          out.code += c == '\n' ? '\n' : ' ';
        }
        break;
    }
  }
  flush_comment();
  return out;
}

// ---------------------------------------------------------------------------
// Tokenizer over blanked code.

struct Tok {
  enum class Kind { kIdent, kNum, kPunct };
  Kind kind = Kind::kPunct;
  std::string text;
  int line = 1;
};

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::vector<Tok> tokenize(const std::string& code) {
  std::vector<Tok> toks;
  int line = 1;
  for (std::size_t i = 0; i < code.size();) {
    const char c = code[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    if (ident_start(c)) {
      std::size_t j = i + 1;
      while (j < code.size() && ident_char(code[j])) ++j;
      toks.push_back({Tok::Kind::kIdent, code.substr(i, j - i), line});
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      std::size_t j = i + 1;
      while (j < code.size() &&
             (ident_char(code[j]) || code[j] == '.' || code[j] == '\'')) {
        ++j;
      }
      toks.push_back({Tok::Kind::kNum, code.substr(i, j - i), line});
      i = j;
      continue;
    }
    // Multi-char operators the passes care about; everything else is a
    // single char (note `>` stays single so template depth counting can
    // treat `>>` as two closers).
    if (c == ':' && i + 1 < code.size() && code[i + 1] == ':') {
      toks.push_back({Tok::Kind::kPunct, "::", line});
      i += 2;
      continue;
    }
    if (c == '-' && i + 1 < code.size() && code[i + 1] == '>') {
      toks.push_back({Tok::Kind::kPunct, "->", line});
      i += 2;
      continue;
    }
    toks.push_back({Tok::Kind::kPunct, std::string(1, c), line});
    ++i;
  }
  return toks;
}

// ---------------------------------------------------------------------------
// Scope pass: brace-matching with enough look-back to classify each `{`
// as namespace / class / function (incl. lambda) / plain block, yielding
// per-token "innermost function" and "innermost class" context.

struct FunctionInfo {
  std::string name;   ///< unqualified
  std::string cls;    ///< enclosing/qualifying class ("" for free)
  std::size_t body_begin = 0;  ///< token index of `{`
  std::size_t body_end = 0;    ///< token index of matching `}`
};

struct ScopeInfo {
  std::vector<FunctionInfo> functions;
  /// Innermost function index per token (-1 outside functions).
  std::vector<int> fn_at;
  /// Innermost class name per token ("" outside classes).
  std::vector<std::string> cls_at;
  /// True where the token sits at namespace/file scope (only blocks of
  /// namespaces/classes above it).
  std::vector<bool> ns_scope_at;
  /// True at each `{` opening a namespace, class or function body (not a
  /// plain block or a braced initializer).
  std::vector<bool> body_open;
};

bool is_keyword(const std::string& s) {
  static const std::set<std::string> kw = {
      "if",     "for",      "while",   "switch", "catch",   "do",
      "else",   "try",      "return",  "const",  "noexcept", "override",
      "final",  "mutable",  "class",   "struct", "union",   "enum",
      "public", "private",  "protected", "virtual", "explicit", "static",
      "inline", "constexpr", "typename", "template", "new",  "delete"};
  return kw.count(s) != 0;
}

ScopeInfo scope_pass(const std::vector<Tok>& toks) {
  ScopeInfo out;
  out.fn_at.assign(toks.size(), -1);
  out.cls_at.assign(toks.size(), "");
  out.ns_scope_at.assign(toks.size(), true);
  out.body_open.assign(toks.size(), false);

  struct Frame {
    char kind = 'b';  // 'n'amespace, 'c'lass, 'f'unction, 'b'lock
    int fn = -1;      // function index active inside this frame
    std::string cls;
  };
  std::vector<Frame> stack;
  int cur_fn = -1;
  std::string cur_cls;
  char pending = 0;  // 'n' or 'c'
  std::string pending_name;

  const auto classify_open = [&](std::size_t i) -> Frame {
    Frame f;
    f.fn = cur_fn;
    f.cls = cur_cls;
    if (pending == 'n') {
      f.kind = 'n';
      return f;
    }
    if (pending == 'c' && !pending_name.empty()) {
      f.kind = 'c';
      f.cls = pending_name;
      return f;
    }
    // Look back past trailing function specifiers / trailing return type.
    std::ptrdiff_t j = static_cast<std::ptrdiff_t>(i) - 1;
    while (j >= 0) {
      const Tok& p = toks[static_cast<std::size_t>(j)];
      if (p.text == ")") break;
      if (p.kind == Tok::Kind::kIdent || p.text == "::" || p.text == "->" ||
          p.text == "*" || p.text == "&" || p.text == "<" || p.text == ">") {
        --j;
        continue;
      }
      break;
    }
    if (j < 0 || toks[static_cast<std::size_t>(j)].text != ")") {
      f.kind = 'b';
      return f;
    }
    // Match back to the opening paren.
    int depth = 0;
    std::ptrdiff_t k = j;
    for (; k >= 0; --k) {
      const std::string& t = toks[static_cast<std::size_t>(k)].text;
      if (t == ")") ++depth;
      if (t == "(") {
        --depth;
        if (depth == 0) break;
      }
    }
    const std::ptrdiff_t h = k - 1;
    if (h < 0) {
      f.kind = 'b';
      return f;
    }
    const Tok& ht = toks[static_cast<std::size_t>(h)];
    if (ht.kind == Tok::Kind::kIdent &&
        (ht.text == "if" || ht.text == "for" || ht.text == "while" ||
         ht.text == "switch" || ht.text == "catch")) {
      f.kind = 'b';
      return f;
    }
    if (ht.text == "]") {  // lambda: [...] (args) {
      f.kind = 'f';
      FunctionInfo fn;
      fn.name = "(lambda)";
      fn.cls = cur_cls;
      fn.body_begin = i;
      out.functions.push_back(fn);
      f.fn = static_cast<int>(out.functions.size()) - 1;
      return f;
    }
    if (ht.kind == Tok::Kind::kIdent && !is_keyword(ht.text)) {
      FunctionInfo fn;
      fn.name = ht.text;
      fn.cls = cur_cls;
      fn.body_begin = i;
      // A::B::name qualifiers: the nearest one is the class.
      std::ptrdiff_t q = h - 1;
      if (q - 1 >= 0 && toks[static_cast<std::size_t>(q)].text == "::" &&
          toks[static_cast<std::size_t>(q - 1)].kind == Tok::Kind::kIdent) {
        fn.cls = toks[static_cast<std::size_t>(q - 1)].text;
      }
      out.functions.push_back(fn);
      f.kind = 'f';
      f.fn = static_cast<int>(out.functions.size()) - 1;
      return f;
    }
    f.kind = 'b';
    return f;
  };

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Tok& t = toks[i];
    out.fn_at[i] = cur_fn;
    out.cls_at[i] = cur_cls;
    bool ns = true;
    for (const Frame& fr : stack) {
      if (fr.kind == 'f' || fr.kind == 'b') ns = false;
    }
    out.ns_scope_at[i] = ns && cur_fn < 0;

    if (t.kind == Tok::Kind::kIdent) {
      if (t.text == "namespace") {
        pending = 'n';
        pending_name.clear();
      } else if (t.text == "class" || t.text == "struct" ||
                 t.text == "union") {
        if (pending != 'c') {
          pending = 'c';
          pending_name.clear();
        }
      } else if (t.text == "enum") {
        pending = 'c';
        pending_name.clear();
      } else if (pending != 0 && pending_name.empty() &&
                 !is_keyword(t.text)) {
        pending_name = t.text;
      }
      continue;
    }
    if (t.text == ";") {
      pending = 0;  // forward declaration / using
      continue;
    }
    if (t.text == "{") {
      Frame f = classify_open(i);
      pending = 0;
      out.body_open[i] = f.kind != 'b';
      stack.push_back(f);
      if (f.kind == 'f') cur_fn = f.fn;
      if (f.kind == 'c') cur_cls = f.cls;
      continue;
    }
    if (t.text == "}") {
      if (!stack.empty()) {
        const Frame f = stack.back();
        stack.pop_back();
        if (f.kind == 'f' && f.fn >= 0 &&
            out.functions[static_cast<std::size_t>(f.fn)].body_end == 0) {
          out.functions[static_cast<std::size_t>(f.fn)].body_end = i;
        }
        cur_fn = stack.empty() ? -1 : stack.back().fn;
        cur_cls.clear();
        for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
          if (it->kind == 'c' || !it->cls.empty()) {
            cur_cls = it->cls;
            break;
          }
        }
        // Inherit the class context frames carry.
        if (cur_cls.empty() && !stack.empty()) cur_cls = stack.back().cls;
      }
      continue;
    }
  }
  // Unterminated functions (truncated input): close at EOF.
  for (FunctionInfo& fn : out.functions) {
    if (fn.body_end == 0) fn.body_end = toks.empty() ? 0 : toks.size() - 1;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Small helpers shared by the rules.

bool path_matches(const std::string& path,
                  const std::vector<std::string>& prefixes) {
  for (const std::string& p : prefixes) {
    if (path.rfind(p, 0) == 0) return true;
  }
  return false;
}

const std::vector<std::string>& deterministic_dirs() {
  static const std::vector<std::string> dirs = {
      "src/sim/", "src/io/", "src/mpi/", "src/core/", "src/pfs/"};
  return dirs;
}

/// Token index of the `>` matching the `<` at `open` (template argument
/// list), or npos. Depth counts single `>` tokens, so `>>` closes two.
std::size_t match_angle(const std::vector<Tok>& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if (t == "<") ++depth;
    if (t == ">") {
      --depth;
      if (depth == 0) return i;
    }
    if (t == ";" || t == "{") break;  // not a template argument list
  }
  return std::string::npos;
}

std::size_t match_paren(const std::vector<Tok>& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if (t == "(") ++depth;
    if (t == ")") {
      --depth;
      if (depth == 0) return i;
    }
  }
  return std::string::npos;
}

std::size_t match_brace(const std::vector<Tok>& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if (t == "{") ++depth;
    if (t == "}") {
      --depth;
      if (depth == 0) return i;
    }
  }
  return std::string::npos;
}

/// Token index one past the statement that starts at `begin`: the first
/// `;` outside brackets, a bracket closing an enclosing group, or a body
/// `{` (after `)`, or opening a namespace/class/function body). Braced
/// initializers stay inside the statement.
std::size_t statement_end(const std::vector<Tok>& toks,
                          const ScopeInfo& scope, std::size_t begin) {
  int depth = 0;
  std::size_t i = begin;
  for (; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if (depth == 0 &&
        (t == ";" || (t == "{" && (scope.body_open[i] ||
                                   (i > 0 && toks[i - 1].text == ")"))))) {
      break;
    }
    if (t == "(" || t == "[" || t == "{") ++depth;
    if ((t == ")" || t == "]" || t == "}") && --depth < 0) break;
  }
  return i;
}

}  // namespace

const std::vector<std::string>& all_rules() {
  static const std::vector<std::string> rules = {
      "bad-suppression",   "lock-order-cycle", "mutable-static",
      "pointer-key-order", "raw-assert",       "raw-random",
      "time-seeded-rng",   "unobserved-park",  "unordered-iter",
      "untagged-narrowing", "wall-clock"};
  return rules;
}

std::string format_finding(const Finding& f) {
  std::ostringstream os;
  os << f.path << ':' << f.line << ": [" << f.rule << "] " << f.message;
  if (f.suppressed) os << "  (suppressed: " << f.justification << ')';
  return os.str();
}

Analyzer::Analyzer() = default;

void Analyzer::analyze(const std::string& path, const std::string& content) {
  const BlankResult blanked = blank(content);
  const std::vector<Tok> toks = tokenize(blanked.code);
  const ScopeInfo scope = scope_pass(toks);

  const bool in_deterministic = path_matches(path, deterministic_dirs());
  const bool in_sim = path_matches(path, {"src/sim/"});
  const bool static_scope = path_matches(path, {"src/sim/", "src/io/"});

  const auto add = [&](int line, const char* rule, std::string msg) {
    findings_.push_back({path, line, rule, std::move(msg), false, ""});
  };

  // --- Suppression comments -----------------------------------------------
  // // mcio-analyze: allow(<rule>[, <rule>]) -- <justification>
  // Angle brackets mark documentation examples, not real suppressions.
  for (const auto& [line, text] : blanked.comments) {
    const std::size_t at = text.find("mcio-analyze:");
    if (at == std::string::npos) continue;
    std::size_t p = at + std::string("mcio-analyze:").size();
    while (p < text.size() && text[p] == ' ') ++p;
    const auto bad = [&](const std::string& why) {
      add(line, "bad-suppression",
          "malformed suppression: " + why +
              " — syntax is `mcio-analyze: allow(<rule>) -- "
              "<justification>`");
    };
    if (text.compare(p, 6, "allow(") != 0) {
      bad("expected `allow(`");
      continue;
    }
    const std::size_t close = text.find(')', p);
    if (close == std::string::npos) {
      bad("unclosed allow(...)");
      continue;
    }
    const std::string list = text.substr(p + 6, close - (p + 6));
    if (list.find('<') != std::string::npos) continue;  // doc example
    std::vector<std::string> rules;
    std::stringstream ss(list);
    std::string item;
    bool ok = true;
    while (std::getline(ss, item, ',')) {
      const std::size_t b = item.find_first_not_of(" \t");
      const std::size_t e = item.find_last_not_of(" \t");
      if (b == std::string::npos) {
        ok = false;
        bad("empty rule name");
        break;
      }
      item = item.substr(b, e - b + 1);
      if (std::find(all_rules().begin(), all_rules().end(), item) ==
          all_rules().end()) {
        ok = false;
        bad("unknown rule `" + item + "`");
        break;
      }
      rules.push_back(item);
    }
    if (!ok) continue;
    if (rules.empty()) {
      bad("empty rule list");
      continue;
    }
    const std::size_t dash = text.find("--", close);
    std::string just;
    if (dash != std::string::npos) {
      just = text.substr(dash + 2);
      const std::size_t b = just.find_first_not_of(" \t");
      just = b == std::string::npos ? "" : just.substr(b);
      const std::size_t e = just.find_last_not_of(" \t\r");
      if (e != std::string::npos) just = just.substr(0, e + 1);
    }
    if (just.empty()) {
      bad("missing justification after `--`");
      continue;
    }
    suppressions_.push_back({path, line, std::move(rules), std::move(just)});
  }

  // --- wall-clock / raw-random (token scan) --------------------------------
  // std::rand()/srand are banned everywhere; host clocks, RNG engines and
  // their headers only inside the deterministic dirs.
  {
    static const std::set<std::string> clock_ids = {
        "system_clock",  "steady_clock", "high_resolution_clock",
        "gettimeofday",  "clock_gettime", "timespec_get",
        "localtime",     "gmtime",        "mktime",  "<ctime>"};
    static const std::set<std::string> random_ids = {
        "random_device", "mt19937",        "mt19937_64",
        "default_random_engine", "minstd_rand", "minstd_rand0",
        "ranlux24",      "ranlux48",       "knuth_b",
        "drand48",       "lrand48",        "<random>"};
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != Tok::Kind::kIdent) continue;
      const std::string& id = toks[i].text;
      const bool call = i + 1 < toks.size() && toks[i + 1].text == "(";
      const bool member =
          i >= 1 && (toks[i - 1].text == "." || toks[i - 1].text == "->");
      if ((id == "srand" || (id == "rand" && call)) && !member) {
        add(toks[i].line, "raw-random",
            in_deterministic
                ? id + "() in a deterministic dir — hidden global state, "
                       "not reproducible"
                : id + "() is hidden global state and not reproducible — "
                       "draw from an explicitly seeded util::Rng");
        continue;
      }
      if (!in_deterministic) continue;
      // `#include <ctime>` counts as a use of what the header declares.
      const bool include = id == "include" && i >= 1 &&
                           toks[i - 1].text == "#" && i + 3 < toks.size() &&
                           toks[i + 1].text == "<" && toks[i + 3].text == ">";
      const std::string what = include ? "<" + toks[i + 2].text + ">" : id;
      if (clock_ids.count(what) != 0) {
        add(toks[i].line, "wall-clock",
            "host clock `" + what +
                "` in a deterministic dir — simulated results must depend "
                "only on virtual time (DESIGN.md §12)");
        continue;
      }
      if (random_ids.count(what) != 0) {
        add(toks[i].line, "raw-random",
            "RNG `" + what +
                "` in a deterministic dir — randomness must come from an "
                "explicitly seeded source outside src/{sim,io,mpi,core,"
                "pfs}");
        continue;
      }
      if (id == "time" && call && i >= 2 && toks[i - 1].text == "::" &&
          toks[i - 2].text == "std") {
        add(toks[i].line, "wall-clock",
            "std::time() in a deterministic dir — simulated results "
            "must depend only on virtual time");
      }
    }
  }

  // --- raw-assert / time-seeded-rng / untagged-narrowing -------------------
  // The last two look at the whole statement (up to `;`), so a
  // declaration wrapped over several lines is still one unit.
  {
    static const std::set<std::string> engines = {
        "mt19937",      "mt19937_64",   "default_random_engine",
        "minstd_rand",  "minstd_rand0", "knuth_b",
        "Rng"};
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      const Tok& t = toks[i];
      if (t.kind != Tok::Kind::kIdent) continue;
      const std::string& next = toks[i + 1].text;
      if (t.text == "assert" && next == "(") {
        add(t.line, "raw-assert",
            "assert() is compiled out in release builds and the simulator "
            "is a correctness oracle — use MCIO_CHECK* (always on, throws "
            "util::Error)");
        continue;
      }
      const bool engine =
          engines.count(t.text) != 0 || t.text.rfind("ranlux", 0) == 0;
      const bool seed_call = t.text == "seed" && next == "(" && i >= 1 &&
                             (toks[i - 1].text == "." ||
                              toks[i - 1].text == "->");
      if (engine || seed_call) {
        // An engine built (or reseeded) from a host-nondeterministic
        // source: any `(`/`{` after the engine plus a seed-source mention.
        const std::size_t end = statement_end(toks, scope, i);
        bool constructs = seed_call;
        bool nondet = false;
        for (std::size_t j = i + 1; j < end; ++j) {
          const std::string& s = toks[j].text;
          if (s == "(" || s == "{") constructs = true;
          // time()/clock() calls, but not members such as a virtual-time
          // accessor.
          const bool free_call = j + 1 < end && toks[j + 1].text == "(" &&
                                 toks[j - 1].text != "." &&
                                 toks[j - 1].text != "->";
          if (s == "random_device" || s == "chrono" ||
              ((s == "time" || s == "clock") && free_call)) {
            nondet = true;
          }
        }
        if (constructs && nondet) {
          add(t.line, "time-seeded-rng",
              "RNG seeded from the wall clock or random_device — the run "
              "cannot be replayed; seed from an explicit constant or "
              "testing::test_seed() (DESIGN.md §9)");
        }
        continue;
      }
      // `int x = ...size()`, `std::int32_t x(...size())`: a size_t bound
      // to a 32-bit int with no static_cast tagging the narrowing.
      if ((t.text == "int" || t.text == "int32_t") &&
          toks[i + 1].kind == Tok::Kind::kIdent && !is_keyword(next) &&
          i + 2 < toks.size() &&
          (toks[i + 2].text == "=" || toks[i + 2].text == "(" ||
           toks[i + 2].text == "{")) {
        const std::size_t end = statement_end(toks, scope, i + 2);
        bool from_size = false;
        bool cast = false;
        for (std::size_t j = i + 2; j < end; ++j) {
          if (toks[j].text == "static_cast") cast = true;
          if (toks[j].text == "." && j + 3 < end &&
              toks[j + 1].text == "size" && toks[j + 2].text == "(" &&
              toks[j + 3].text == ")") {
            from_size = true;
          }
        }
        if (from_size && !cast) {
          add(t.line, "untagged-narrowing",
              "size_t bound to a 32-bit int without a cast — it silently "
              "truncates at scale; tag the narrowing with "
              "static_cast<int>(...)");
        }
      }
    }
  }

  // --- pointer-key-order ---------------------------------------------------
  {
    static const std::set<std::string> ordered = {"map", "set", "multimap",
                                                  "multiset"};
    static const std::set<std::string> hashed = {"unordered_map",
                                                 "unordered_set"};
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].kind != Tok::Kind::kIdent) continue;
      const bool is_ordered = ordered.count(toks[i].text) != 0;
      const bool is_hashed = hashed.count(toks[i].text) != 0;
      if ((!is_ordered && !is_hashed) || toks[i + 1].text != "<") continue;
      const std::size_t close = match_angle(toks, i + 1);
      if (close == std::string::npos) continue;
      // First top-level template argument.
      int depth = 0;
      bool pointer_key = false;
      for (std::size_t j = i + 1; j < close; ++j) {
        const std::string& t = toks[j].text;
        if (t == "<") ++depth;
        if (t == ">") --depth;
        if (depth == 1 && t == ",") break;  // end of the key type
        if (depth >= 1 && t == "*") pointer_key = true;
      }
      if (!pointer_key) continue;
      add(toks[i].line, "pointer-key-order",
          is_ordered
              ? "pointer-keyed std::" + toks[i].text +
                    " — iteration order follows addresses, which ASLR "
                    "randomizes per run; key by a dense stable id instead"
              : "pointer-keyed std::" + toks[i].text +
                    " — pointer hashing makes iteration order "
                    "ASLR-dependent; key by a dense stable id instead");
      i = close;
    }
  }

  // --- unordered-iter ------------------------------------------------------
  {
    // Names declared with an unordered type in this file.
    std::set<std::string> unordered_vars;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].kind != Tok::Kind::kIdent ||
          (toks[i].text != "unordered_map" &&
           toks[i].text != "unordered_set") ||
          toks[i + 1].text != "<") {
        continue;
      }
      const std::size_t close = match_angle(toks, i + 1);
      if (close == std::string::npos) continue;
      std::size_t j = close + 1;
      while (j < toks.size() &&
             (toks[j].text == "&" || toks[j].text == "*")) {
        ++j;
      }
      if (j < toks.size() && toks[j].kind == Tok::Kind::kIdent &&
          !is_keyword(toks[j].text)) {
        unordered_vars.insert(toks[j].text);
      }
    }
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].kind != Tok::Kind::kIdent || toks[i].text != "for" ||
          toks[i + 1].text != "(") {
        continue;
      }
      const std::size_t close = match_paren(toks, i + 1);
      if (close == std::string::npos) continue;
      // Top-level `:` of a range-for.
      std::size_t colon = std::string::npos;
      int depth = 0;
      for (std::size_t j = i + 1; j < close; ++j) {
        const std::string& t = toks[j].text;
        if (t == "(" || t == "[" || t == "{") ++depth;
        if (t == ")" || t == "]" || t == "}") --depth;
        if (depth == 1 && t == ":") {
          colon = j;
          break;
        }
      }
      if (colon == std::string::npos) continue;
      // Range expression must end in a plain identifier (calls cannot be
      // resolved by name).
      const Tok& last = toks[close - 1];
      if (last.kind != Tok::Kind::kIdent ||
          unordered_vars.count(last.text) == 0) {
        continue;
      }
      // Collect-then-sort exemption: the loop body only accumulates into
      // local containers that are std::sort-ed before the enclosing
      // function ends (store.cc content_hash is the canonical shape).
      std::size_t body_begin = close + 1;
      std::size_t body_end;
      if (body_begin < toks.size() && toks[body_begin].text == "{") {
        body_end = match_brace(toks, body_begin);
        if (body_end == std::string::npos) body_end = toks.size() - 1;
      } else {
        body_end = body_begin;
        while (body_end < toks.size() && toks[body_end].text != ";") {
          ++body_end;
        }
      }
      std::set<std::string> sinks;
      for (std::size_t j = body_begin; j + 2 < body_end; ++j) {
        if (toks[j].kind == Tok::Kind::kIdent && toks[j + 1].text == "." &&
            (toks[j + 2].text == "push_back" ||
             toks[j + 2].text == "insert" ||
             toks[j + 2].text == "emplace" ||
             toks[j + 2].text == "emplace_back" ||
             toks[j + 2].text == "push")) {
          sinks.insert(toks[j].text);
        }
      }
      bool sorted_after = false;
      std::size_t search_end = toks.size();
      const int fn = scope.fn_at[i];
      if (fn >= 0) {
        search_end = scope.functions[static_cast<std::size_t>(fn)].body_end;
      }
      for (std::size_t j = body_end;
           j + 2 < search_end && !sorted_after; ++j) {
        if (toks[j].kind == Tok::Kind::kIdent &&
            (toks[j].text == "sort" || toks[j].text == "stable_sort") &&
            toks[j + 1].text == "(") {
          const std::size_t args_end = match_paren(toks, j + 1);
          for (std::size_t a = j + 2;
               a < args_end && a < toks.size(); ++a) {
            if (toks[a].kind == Tok::Kind::kIdent &&
                sinks.count(toks[a].text) != 0) {
              sorted_after = true;
              break;
            }
          }
        }
      }
      if (sorted_after) continue;
      add(toks[i].line, "unordered-iter",
          "iteration over unordered container `" + last.text +
              "` — order is hash-seed/layout dependent and must not reach "
              "serialization, hashing, or output; collect and sort first "
              "(see pfs::Store::content_hash), or key the container "
              "deterministically");
    }
  }

  // --- mutable-static ------------------------------------------------------
  if (static_scope) {
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != Tok::Kind::kIdent || toks[i].text != "static") {
        continue;
      }
      // Declaration tokens up to the first `;`, `=` or `{`.
      static const std::set<std::string> safe = {
          "const",       "constexpr",   "constinit",
          "thread_local", "atomic",     "atomic_flag",
          "mutex",       "Mutex",       "once_flag",
          "condition_variable", "condition_variable_any"};
      bool is_safe = false;
      bool is_function = false;
      std::size_t j = i + 1;
      for (; j < toks.size(); ++j) {
        const Tok& t = toks[j];
        if (t.text == ";" || t.text == "=" || t.text == "{") break;
        if (t.kind == Tok::Kind::kIdent && safe.count(t.text) != 0) {
          is_safe = true;
        }
        if (t.text == "(") {
          is_function = true;  // parameter list before any initializer
          break;
        }
      }
      if (is_safe || is_function) continue;
      add(toks[i].line, "mutable-static",
          "mutable static state in src/sim|src/io — shared across "
          "bench/fuzz pool threads without a lock; make it "
          "const/constexpr/thread_local/atomic, guard it with an "
          "annotated util::Mutex, or justify a suppression "
          "(DESIGN.md §12)");
    }
  }

  // --- unobserved-park -----------------------------------------------------
  if (!in_sim) {
    // Lines where an observer wait hook appears.
    std::set<int> hook_lines;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].kind == Tok::Kind::kIdent &&
          toks[i].text == "on_wait_begin" && toks[i + 1].text == "(") {
        hook_lines.insert(toks[i].line);
      }
    }
    // Lines: the hook and its park() sit in one wait loop a few lines
    // apart; 20 covers the loop's bookkeeping without crediting a hook
    // from an unrelated wait further up the function.
    constexpr int kWindow = 20;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
      if (toks[i].kind != Tok::Kind::kIdent || toks[i].text != "park" ||
          toks[i + 1].text != "(" || toks[i + 2].text != ")") {
        continue;
      }
      if (i >= 1 && toks[i - 1].text != "." && toks[i - 1].text != "->") {
        continue;  // declaration or definition, not a call
      }
      const int line = toks[i].line;
      bool hooked = false;
      for (auto it = hook_lines.lower_bound(line - kWindow);
           it != hook_lines.end() && *it <= line; ++it) {
        hooked = true;
      }
      if (hooked) continue;
      add(line, "unobserved-park",
          "blocking park() without a verify observer on_wait_begin within "
          "the preceding " +
              std::to_string(kWindow) +
              " lines — a deadlock here would be undiagnosable "
              "(DESIGN.md §8)");
    }
  }

  // --- lock acquisition sites (edges resolved cross-file in finish()) ------
  {
    static const std::set<std::string> guards = {"MutexLock", "lock_guard",
                                                 "unique_lock"};
    const auto mutex_key = [&](std::size_t tok_idx,
                               const std::string& expr) -> std::string {
      const int fn = scope.fn_at[tok_idx];
      std::string owner;
      if (fn >= 0) {
        owner = scope.functions[static_cast<std::size_t>(fn)].cls;
      }
      if (owner.empty()) owner = scope.cls_at[tok_idx];
      if (owner.empty()) {
        // Free function: qualify by file stem so unrelated files do not
        // alias each other's `mu`.
        const std::size_t slash = path.find_last_of('/');
        owner = slash == std::string::npos ? path : path.substr(slash + 1);
      }
      return owner + "::" + expr;
    };
    struct Acq {
      std::string key;
      int line;
      int fn;
    };
    std::vector<Acq> acqs;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (scope.fn_at[i] < 0) continue;
      if (toks[i].kind != Tok::Kind::kIdent) continue;
      std::size_t open = std::string::npos;
      if (guards.count(toks[i].text) != 0) {
        // MutexLock lk(expr) / lock_guard<...> lk(expr)
        std::size_t j = i + 1;
        if (j < toks.size() && toks[j].text == "<") {
          const std::size_t c = match_angle(toks, j);
          if (c == std::string::npos) continue;
          j = c + 1;
        }
        if (j < toks.size() && toks[j].kind == Tok::Kind::kIdent) ++j;
        if (j < toks.size() && toks[j].text == "(") open = j;
      } else if (toks[i].text == "lock" && i >= 2 &&
                 (toks[i - 1].text == "." || toks[i - 1].text == "->") &&
                 i + 1 < toks.size() && toks[i + 1].text == "(") {
        // expr.lock(): reconstruct the receiver chain backwards.
        std::string expr;
        std::ptrdiff_t j = static_cast<std::ptrdiff_t>(i) - 1;
        while (j >= 1 &&
               (toks[static_cast<std::size_t>(j)].text == "." ||
                toks[static_cast<std::size_t>(j)].text == "->") &&
               toks[static_cast<std::size_t>(j - 1)].kind ==
                   Tok::Kind::kIdent) {
          expr = toks[static_cast<std::size_t>(j - 1)].text +
                 (expr.empty() ? "" : "." + expr);
          j -= 2;
        }
        if (expr.empty() || expr == "this") continue;
        if (expr.rfind("this.", 0) == 0) expr = expr.substr(5);
        acqs.push_back({mutex_key(i, expr), toks[i].line, scope.fn_at[i]});
        continue;
      }
      if (open == std::string::npos) continue;
      const std::size_t close = match_paren(toks, open);
      if (close == std::string::npos || close == open + 1) continue;
      std::string expr;
      for (std::size_t a = open + 1; a < close; ++a) {
        const Tok& t = toks[a];
        if (t.kind == Tok::Kind::kIdent && t.text != "this") {
          expr += (expr.empty() ? "" : ".") + t.text;
        }
      }
      if (expr.empty()) continue;
      acqs.push_back({mutex_key(i, expr), toks[i].line, scope.fn_at[i]});
    }
    // Within one function, every earlier acquisition orders before every
    // later one (scoped releases are not tracked — an over-approximation
    // that errs toward reporting).
    for (std::size_t a = 0; a < acqs.size(); ++a) {
      for (std::size_t b = a + 1; b < acqs.size(); ++b) {
        if (acqs[a].fn != acqs[b].fn || acqs[a].key == acqs[b].key) {
          continue;
        }
        lock_edges_.push_back(
            {acqs[a].key, acqs[b].key, path, acqs[b].line});
      }
    }
  }
}

void Analyzer::add_file(const std::string& path,
                        const std::string& content) {
  analyze(path, content);
}

bool Analyzer::add_path(const std::string& fs_path) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const auto read_one = [&](const fs::path& p,
                            const std::string& rel) -> bool {
    std::ifstream in(p, std::ios::binary);
    if (!in.good()) return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    add_file(rel, ss.str());
    return true;
  };
  if (fs::is_regular_file(fs_path, ec)) {
    return read_one(fs_path, fs_path);
  }
  if (!fs::is_directory(fs_path, ec)) return false;
  static const std::set<std::string> exts = {".h", ".hpp", ".cc", ".cpp",
                                             ".cxx"};
  std::vector<std::string> files;
  fs::recursive_directory_iterator it(fs_path, ec), end;
  if (ec) return false;
  for (; it != end; it.increment(ec)) {
    if (ec) return false;
    const fs::path& p = it->path();
    const std::string name = p.filename().string();
    if (it->is_directory()) {
      if (name == ".git" || name == "analyze_fixtures" ||
          name.rfind("build", 0) == 0 || name == "third_party") {
        it.disable_recursion_pending();
      }
      continue;
    }
    if (!it->is_regular_file()) continue;
    if (exts.count(p.extension().string()) == 0) continue;
    files.push_back(p.generic_string());
  }
  std::sort(files.begin(), files.end());
  for (const std::string& f : files) {
    if (!read_one(f, f)) return false;
  }
  return true;
}

std::vector<Finding> Analyzer::finish() {
  // Cross-file lock-order cycles. Keys collide only when class names do —
  // good enough for a codebase-wide acquisition-order rule.
  {
    std::map<std::string, std::vector<const LockEdge*>> adj;
    std::set<std::string> nodes;
    for (const LockEdge& e : lock_edges_) {
      adj[e.from].push_back(&e);
      nodes.insert(e.from);
      nodes.insert(e.to);
    }
    std::set<std::string> reported;  // canonical cycle keys
    for (const std::string& start : nodes) {
      // DFS from each node; a path returning to `start` is a cycle.
      std::vector<std::pair<std::string, const LockEdge*>> stack;
      std::set<std::string> on_path;
      std::vector<const LockEdge*> path_edges;
      const std::function<void(const std::string&)> dfs =
          [&](const std::string& node) {
            if (on_path.count(node) != 0) return;
            on_path.insert(node);
            for (const LockEdge* e : adj[node]) {
              if (e->to == start) {
                // Cycle start -> ... -> node -> start.
                std::vector<std::string> cyc;
                for (const LockEdge* pe : path_edges) cyc.push_back(pe->from);
                cyc.push_back(e->from);
                std::string canon;
                std::vector<std::string> sorted = cyc;
                std::sort(sorted.begin(), sorted.end());
                for (const std::string& s : sorted) canon += s + "|";
                if (reported.insert(canon).second) {
                  std::ostringstream msg;
                  msg << "lock acquisition order cycle: ";
                  for (const std::string& s : cyc) msg << s << " -> ";
                  msg << start
                      << " — acquiring in both orders can deadlock; pick "
                         "one global order (DESIGN.md §13)";
                  findings_.push_back({e->path, e->line,
                                       "lock-order-cycle", msg.str(), false,
                                       ""});
                }
                continue;
              }
              path_edges.push_back(e);
              dfs(e->to);
              path_edges.pop_back();
            }
          };
      path_edges.clear();
      dfs(start);
    }
  }

  // Suppression resolution: an allow() on the finding's line or the line
  // directly above covers it. bad-suppression itself is not suppressible.
  for (Finding& f : findings_) {
    if (f.rule == "bad-suppression") continue;
    const Suppression* best = nullptr;
    for (const Suppression& s : suppressions_) {
      if (s.path != f.path) continue;
      if (f.line != s.line && f.line != s.line + 1) continue;
      if (std::find(s.rules.begin(), s.rules.end(), f.rule) ==
          s.rules.end()) {
        continue;
      }
      // A same-line allow() beats one on the line above (two adjacent
      // suppressed sites each keep their own justification).
      if (best == nullptr || s.line == f.line) best = &s;
      if (s.line == f.line) break;
    }
    if (best != nullptr) {
      f.suppressed = true;
      f.justification = best->justification;
    }
  }

  std::sort(findings_.begin(), findings_.end(),
            [](const Finding& a, const Finding& b) {
              if (a.path != b.path) return a.path < b.path;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });
  return findings_;
}

}  // namespace mcio::analyze
