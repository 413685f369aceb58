// The ftla_lint rule implementations. Each rule is a pure function from
// a scanned SourceFile (+ its RuleConfig) to findings; lint_file owns
// scoping, enablement and suppression so the rules stay oblivious to
// configuration mechanics.
#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include "lint/lint.hpp"

namespace ftla::lint {

namespace {

// ----- shared helpers -------------------------------------------------

/// True when `path` equals `prefix` or lies underneath it.
bool path_under(const std::string& path, const std::string& prefix) {
  if (path == prefix) return true;
  return path.size() > prefix.size() && path.compare(0, prefix.size(), prefix) == 0 &&
         path[prefix.size()] == '/';
}

bool path_in_any(const std::string& path, const std::vector<std::string>& prefixes) {
  return std::any_of(prefixes.begin(), prefixes.end(), [&](const std::string& p) {
    return path_under(path, p);
  });
}

/// A word-ish token occurrence: preceding char is not part of an
/// identifier. (The token itself may end in '_' to act as a prefix
/// match, e.g. "format_".)
bool contains_token(const std::string& line, const std::string& token) {
  std::size_t at = 0;
  while ((at = line.find(token, at)) != std::string::npos) {
    const bool word_start =
        std::isalnum(static_cast<unsigned char>(token.front())) != 0 ||
        token.front() == '_';
    if (!word_start) return true;  // operator tokens like "<<"
    if (at == 0 || (!std::isalnum(static_cast<unsigned char>(line[at - 1])) &&
                    line[at - 1] != '_')) {
      const std::size_t end = at + token.size();
      if (token.back() == '_' || end >= line.size() ||
          (!std::isalnum(static_cast<unsigned char>(line[end])) &&
           line[end] != '_')) {
        return true;
      }
    }
    ++at;
  }
  return false;
}

// ----- function-region segmentation -----------------------------------

/// A brace-delimited body whose header looks like a function (or
/// lambda) signature: `)` before `{`, not a control/type/namespace
/// keyword. Lines are 0-based and inclusive.
struct Region {
  int begin = 0;
  int end = 0;
  std::string header;
};

bool looks_like_function_header(const std::string& header) {
  static const std::regex kNotFunction(
      R"((^|[^A-Za-z0-9_])(if|for|while|switch|catch|class|struct|enum|union|namespace)($|[^A-Za-z0-9_]))");
  if (header.find('(') == std::string::npos ||
      header.find(')') == std::string::npos) {
    return false;
  }
  return !std::regex_search(header, kNotFunction);
}

std::vector<Region> function_regions(const SourceFile& f) {
  std::vector<Region> regions;
  int depth = 0;
  bool in_fn = false;
  int fn_depth = 0;
  int fn_start = 0;
  std::string fn_header;
  std::string header;  // text accumulated since the last ; { or }
  bool continued_directive = false;

  for (int ln = 0; ln < static_cast<int>(f.code.size()); ++ln) {
    const std::string& line = f.code[static_cast<std::size_t>(ln)];
    // Preprocessor lines (and their \-continuations) can carry
    // unbalanced braces; keep them out of the depth count.
    const auto first = line.find_first_not_of(" \t");
    const bool directive =
        continued_directive || (first != std::string::npos && line[first] == '#');
    const std::string& raw_line = f.raw[static_cast<std::size_t>(ln)];
    continued_directive = directive && !raw_line.empty() && raw_line.back() == '\\';
    if (directive) continue;

    for (const char c : line) {
      if (in_fn) {
        if (c == '{') {
          ++depth;
        } else if (c == '}') {
          --depth;
          if (depth == fn_depth) {
            regions.push_back({fn_start, ln, fn_header});
            in_fn = false;
            header.clear();
          }
        }
        continue;
      }
      if (c == '{') {
        if (looks_like_function_header(header)) {
          in_fn = true;
          fn_depth = depth;
          fn_start = ln;
          fn_header = header;
        }
        header.clear();
        ++depth;
      } else if (c == '}') {
        --depth;
        header.clear();
      } else if (c == ';') {
        header.clear();
      } else {
        header += c;
      }
    }
    if (!in_fn) header += ' ';
  }
  return regions;
}

// ----- rule: no-wall-clock --------------------------------------------

void rule_no_wall_clock(const SourceFile& f, const RuleConfig&,
                        std::vector<Finding>* out) {
  struct Pattern {
    std::regex re;
    const char* what;
  };
  static const std::vector<Pattern> kBanned = {
      {std::regex(R"(\bsystem_clock\b)"), "std::chrono::system_clock"},
      {std::regex(R"(\bsteady_clock\b)"), "std::chrono::steady_clock"},
      {std::regex(R"(\bhigh_resolution_clock\b)"),
       "std::chrono::high_resolution_clock"},
      {std::regex(R"(\btime\s*\()"), "time()"},
      {std::regex(R"(\bclock\s*\()"), "clock()"},
      {std::regex(R"(\bgettimeofday\s*\()"), "gettimeofday()"},
      {std::regex(R"(\bclock_gettime\b)"), "clock_gettime()"},
      {std::regex(R"(\blocaltime\b)"), "localtime()"},
  };
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    for (const Pattern& p : kBanned) {
      if (std::regex_search(f.code[i], p.re)) {
        out->push_back({f.path, static_cast<int>(i) + 1, "no-wall-clock",
                        std::string("wall-clock source ") + p.what +
                            " in simulated code; all timing must flow "
                            "through sim::Machine's virtual clock"});
        break;
      }
    }
  }
}

// ----- rule: no-raw-randomness ----------------------------------------

void rule_no_raw_randomness(const SourceFile& f, const RuleConfig&,
                            std::vector<Finding>* out) {
  struct Pattern {
    std::regex re;
    const char* what;
  };
  static const std::vector<Pattern> kBanned = {
      {std::regex(R"(\brand\s*\()"), "rand()"},
      {std::regex(R"(\bsrand\s*\()"), "srand()"},
      {std::regex(R"(\brandom_device\b)"), "std::random_device"},
      {std::regex(R"(\bdrand48\b)"), "drand48()"},
      {std::regex(R"(\blrand48\b)"), "lrand48()"},
  };
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    for (const Pattern& p : kBanned) {
      if (std::regex_search(f.code[i], p.re)) {
        out->push_back({f.path, static_cast<int>(i) + 1, "no-raw-randomness",
                        std::string("unseeded randomness source ") + p.what +
                            "; draw from a seeded ftla::Rng "
                            "(src/common/rng.hpp) so runs replay"});
        break;
      }
    }
  }
}

// ----- rule: deterministic-serialization ------------------------------

/// Names of variables declared (anywhere in the file) with an
/// std::unordered_{map,set,multimap,multiset} type.
std::set<std::string> unordered_variable_names(const SourceFile& f) {
  std::set<std::string> names;
  std::string joined;
  for (const std::string& line : f.code) {
    joined += line;
    joined += ' ';
  }
  static const std::regex kDecl(
      R"(\bunordered_(?:multi)?(?:map|set)\s*<)");
  for (auto it = std::sregex_iterator(joined.begin(), joined.end(), kDecl);
       it != std::sregex_iterator(); ++it) {
    // Balance the template argument list, then read the declared name.
    std::size_t pos = static_cast<std::size_t>(it->position()) + it->length();
    int angle = 1;
    while (pos < joined.size() && angle > 0) {
      if (joined[pos] == '<') ++angle;
      if (joined[pos] == '>') --angle;
      ++pos;
    }
    while (pos < joined.size() &&
           (joined[pos] == ' ' || joined[pos] == '&' || joined[pos] == '*' ||
            joined[pos] == ':')) {
      ++pos;
    }
    std::string name;
    while (pos < joined.size() &&
           (std::isalnum(static_cast<unsigned char>(joined[pos])) != 0 ||
            joined[pos] == '_')) {
      name += joined[pos++];
    }
    if (!name.empty() && name != "const") names.insert(name);
  }
  return names;
}

void rule_deterministic_serialization(const SourceFile& f,
                                      const RuleConfig& cfg,
                                      std::vector<Finding>* out) {
  static const std::vector<std::string> kDefaultSinks = {
      "<<", "fprintf", "printf", "to_json", "write", "serialize", "format_"};
  const std::vector<std::string>& sinks =
      cfg.extra.empty() ? kDefaultSinks : cfg.extra;

  const std::set<std::string> unordered = unordered_variable_names(f);
  static const std::regex kRangeFor(R"(:\s*([A-Za-z_][A-Za-z0-9_]*)\s*\))");
  static const std::regex kBegin(R"(\b([A-Za-z_][A-Za-z0-9_]*)\.begin\s*\()");
  static const std::regex kInlineIter(R"(\bfor\b[^;]*\bunordered_)");

  for (const Region& r : function_regions(f)) {
    bool serializes = false;
    for (int ln = r.begin; ln <= r.end && !serializes; ++ln) {
      for (const std::string& s : sinks) {
        if (contains_token(f.code[static_cast<std::size_t>(ln)], s)) {
          serializes = true;
          break;
        }
      }
    }
    if (!serializes) continue;

    for (int ln = r.begin; ln <= r.end; ++ln) {
      const std::string& line = f.code[static_cast<std::size_t>(ln)];
      std::string culprit;
      std::smatch m;
      if (std::regex_search(line, m, kRangeFor) &&
          unordered.count(m[1].str()) > 0) {
        culprit = m[1].str();
      } else if (std::regex_search(line, m, kBegin) &&
                 unordered.count(m[1].str()) > 0) {
        culprit = m[1].str();
      } else if (std::regex_search(line, kInlineIter)) {
        culprit = "<unordered container>";
      }
      if (!culprit.empty()) {
        out->push_back(
            {f.path, ln + 1, "deterministic-serialization",
             "iterating unordered container '" + culprit +
                 "' in a function that writes serialized output; iterate "
                 "a sorted copy (or use std::map) so bytes are "
                 "reproducible"});
      }
    }
  }
}

// ----- rule: exit-code-contract ---------------------------------------

void rule_exit_code_contract(const SourceFile& f, const RuleConfig&,
                             std::vector<Finding>* out) {
  // Only CLI translation units carry the process exit contract.
  if (f.path.size() < 8 ||
      f.path.compare(f.path.size() - 8, 8, "_cli.cpp") != 0) {
    return;
  }
  static const std::regex kExitCall(
      R"(\b(?:std\s*::\s*)?exit\s*\(\s*(?:[0-9]+|EXIT_SUCCESS|EXIT_FAILURE)\s*\))");
  static const std::regex kMacroReturn(
      R"(\breturn\s+(?:EXIT_SUCCESS|EXIT_FAILURE)\s*;)");
  static const std::regex kNumericReturn(R"(\breturn\s+[0-9]+\s*;)");
  static const std::regex kMain(R"(\bmain\s*\()");

  for (std::size_t i = 0; i < f.code.size(); ++i) {
    if (std::regex_search(f.code[i], kExitCall) ||
        std::regex_search(f.code[i], kMacroReturn)) {
      out->push_back({f.path, static_cast<int>(i) + 1, "exit-code-contract",
                      "raw process exit status; use the shared "
                      "ftla::common::kExit* contract "
                      "(src/common/exit_codes.hpp)"});
    }
  }

  int main_line = -1;
  for (const Region& r : function_regions(f)) {
    if (!std::regex_search(r.header, kMain)) continue;
    main_line = r.begin;
    for (int ln = r.begin; ln <= r.end; ++ln) {
      if (std::regex_search(f.code[static_cast<std::size_t>(ln)],
                            kNumericReturn)) {
        out->push_back({f.path, ln + 1, "exit-code-contract",
                        "numeric exit literal returned from main; use the "
                        "shared ftla::common::kExit* contract "
                        "(src/common/exit_codes.hpp)"});
      }
    }
  }

  bool mentions_contract = false;
  for (const std::string& line : f.code) {
    if (line.find("kExit") != std::string::npos) {
      mentions_contract = true;
      break;
    }
  }
  if (main_line >= 0 && !mentions_contract) {
    out->push_back({f.path, main_line + 1, "exit-code-contract",
                    "CLI main never references the shared exit-code "
                    "contract; return ftla::common::kExit* values "
                    "(src/common/exit_codes.hpp)"});
  }
}

// ----- rule: metrics-naming -------------------------------------------

bool valid_metric_name(const std::string& name) {
  static const std::regex kName(
      R"(^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$)");
  return std::regex_match(name, kName);
}

/// The subsystem prefixes exporters and dashboards route by. `extra`
/// overrides the list (same pattern as include-hygiene's banned set:
/// empty means "use the built-in default").
const std::vector<std::string>& metric_namespaces(const RuleConfig& cfg) {
  static const std::vector<std::string> kDefault = {
      "abft", "bench", "campaign", "faults", "fleet", "obs", "profile",
      "run", "runtime", "service", "sim", "slo", "tenant", "test",
      "timeseries", "trace"};
  return cfg.extra.empty() ? kDefault : cfg.extra;
}

void rule_metrics_naming(const SourceFile& f, const RuleConfig& cfg,
                         std::vector<Finding>* out) {
  // Only full-literal first arguments are judged: a closing quote that
  // is not directly followed by ',' or ')' means the name is assembled
  // at runtime and out of this rule's reach.
  static const std::regex kCall(
      R"re(\b(add_counter|set_gauge|record_histogram|counter|gauge|histogram|sample_counter|sample_gauge)\s*\(\s*"([^"]*)"\s*[,\)])re");
  for (std::size_t i = 0; i < f.nocomment.size(); ++i) {
    const std::string& line = f.nocomment[i];
    for (auto it = std::sregex_iterator(line.begin(), line.end(), kCall);
         it != std::sregex_iterator(); ++it) {
      const std::string name = (*it)[2].str();
      if (!valid_metric_name(name)) {
        out->push_back({f.path, static_cast<int>(i) + 1, "metrics-naming",
                        "metric name \"" + name +
                            "\" violates the subsystem.noun[_unit] "
                            "convention (lowercase dotted segments, e.g. "
                            "\"abft.verify.dgemm_blocks\")"});
        continue;
      }
      const std::string ns = name.substr(0, name.find('.'));
      const std::vector<std::string>& allowed = metric_namespaces(cfg);
      if (std::find(allowed.begin(), allowed.end(), ns) == allowed.end()) {
        std::string list;
        for (const std::string& a : allowed) {
          if (!list.empty()) list += ", ";
          list += a;
        }
        out->push_back({f.path, static_cast<int>(i) + 1, "metrics-naming",
                        "metric name \"" + name + "\" uses unknown "
                            "namespace \"" + ns +
                            "\" (known subsystem prefixes: " + list +
                            "; extend via extra in .ftla_lint.toml)"});
      }
    }
  }
}

// ----- rule: include-hygiene ------------------------------------------

void rule_include_hygiene(const SourceFile& f, const RuleConfig& cfg,
                          std::vector<Finding>* out) {
  if (!f.is_header()) return;
  static const std::vector<std::string> kDefaultBanned = {
      "iostream", "fstream", "regex", "filesystem"};
  const std::vector<std::string>& banned =
      cfg.extra.empty() ? kDefaultBanned : cfg.extra;
  static const std::regex kInclude(
      R"(^\s*#\s*include\s*[<"]([^>"]+)[>"])");
  for (std::size_t i = 0; i < f.nocomment.size(); ++i) {
    std::smatch m;
    if (!std::regex_search(f.nocomment[i], m, kInclude)) continue;
    const std::string target = m[1].str();
    if (std::find(banned.begin(), banned.end(), target) != banned.end()) {
      out->push_back({f.path, static_cast<int>(i) + 1, "include-hygiene",
                      "header includes <" + target +
                          ">; heavyweight includes belong in .cpp files "
                          "(use <iosfwd> / forward declarations in "
                          "headers)"});
    }
  }
}

// ----- DAG rules: shared task call-site walker ------------------------

std::string trim_copy(const std::string& s) {
  const std::size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  const std::size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// One call site that builds a task: `.add_task(...)` / `->add_task(...)`,
/// or the drivers' `step(name, footprint, body, options, stream)`
/// helper, which either runs its body at once or hands it to add_task.
/// Records the 0-based line of the token, and the arguments split at
/// top-level commas, each with its per-line text. Definitions
/// (`TaskGraph::add_task`, `void step(`) are not calls and are skipped.
struct TaskCall {
  bool step = false;
  int line = 0;
  std::vector<std::string> args;
  std::vector<std::vector<std::pair<int, std::string>>> arg_extent;
};

/// True when `token` at `at` in `line` starts a call of that name. A
/// member call (`.`/`->`) always does; an unqualified call (the step
/// helper) must follow punctuation or `return`/`else`, which rules out
/// declarations such as `void step(` and `Driver::step(`.
bool is_call_site(const std::string& line, std::size_t at, bool member_only) {
  if (at > 0 && ident_char(line[at - 1])) return false;
  const bool member =
      at > 0 && (line[at - 1] == '.' || line[at - 1] == '>');
  if (member) return true;
  if (member_only) return false;
  const std::string before = trim_copy(line.substr(0, at));
  if (before.empty()) return true;
  const char last = before.back();
  if (last == ':') {
    return before.size() < 2 || before[before.size() - 2] != ':';
  }
  if (!ident_char(last)) return last != '*' && last != '&' && last != '>';
  static const std::regex kKeyword(R"((^|[^A-Za-z0-9_])(return|else)$)");
  return std::regex_search(before, kKeyword);
}

/// Splits the argument list that opens at (`ln`, `open`) at top-level
/// commas, recording each argument's per-line text.
TaskCall scan_call(const SourceFile& f, int ln, std::size_t open,
                   bool step) {
  TaskCall call;
  call.step = step;
  call.line = ln;
  call.arg_extent.emplace_back();
  int pd = 0;  // parens, 1 inside the call's own list
  int bd = 0;  // braces (footprint / designated initializers)
  int kd = 0;  // brackets (lambda captures, subscripts)
  std::string cur;
  bool done = false;
  int l = ln;
  std::size_t p = open;
  while (l < static_cast<int>(f.code.size()) && !done) {
    const std::string& s = f.code[static_cast<std::size_t>(l)];
    std::string seg;
    for (; p < s.size(); ++p) {
      const char c = s[p];
      if (c == '(' && pd == 0) {
        pd = 1;
        continue;
      }
      if (c == '(') {
        ++pd;
      } else if (c == ')') {
        --pd;
        if (pd == 0) {
          done = true;
          break;
        }
      } else if (c == '{') {
        ++bd;
      } else if (c == '}') {
        --bd;
      } else if (c == '[') {
        ++kd;
      } else if (c == ']') {
        --kd;
      }
      if (c == ',' && pd == 1 && bd == 0 && kd == 0) {
        call.args.push_back(cur);
        cur.clear();
        if (!seg.empty()) call.arg_extent.back().emplace_back(l, seg);
        seg.clear();
        call.arg_extent.emplace_back();
      } else {
        cur += c;
        seg += c;
      }
    }
    if (!seg.empty()) call.arg_extent.back().emplace_back(l, seg);
    if (!done) {
      ++l;
      p = 0;
      cur += ' ';
    }
  }
  if (done) call.args.push_back(cur);
  return call;
}

std::vector<TaskCall> task_calls(const SourceFile& f) {
  struct Token {
    std::string text;
    bool step;
  };
  static const std::vector<Token> kTokens = {{"add_task", false},
                                             {"step", true}};
  std::vector<TaskCall> calls;
  for (int ln = 0; ln < static_cast<int>(f.code.size()); ++ln) {
    const std::string& line = f.code[static_cast<std::size_t>(ln)];
    for (const Token& token : kTokens) {
      std::size_t at = 0;
      while ((at = line.find(token.text, at)) != std::string::npos) {
        const std::size_t tok_end = at + token.text.size();
        std::size_t open = tok_end;
        while (open < line.size() && line[open] == ' ') ++open;
        if (open < line.size() && line[open] == '(' &&
            (tok_end >= line.size() || !ident_char(line[tok_end])) &&
            is_call_site(line, at, /*member_only=*/!token.step)) {
          calls.push_back(scan_call(f, ln, open, token.step));
        }
        at = tok_end;
      }
    }
  }
  std::stable_sort(calls.begin(), calls.end(),
                   [](const TaskCall& a, const TaskCall& b) {
                     return a.line < b.line;
                   });
  return calls;
}

// ----- rule: dag-footprint-helpers ------------------------------------

void rule_dag_footprint_helpers(const SourceFile& f, const RuleConfig&,
                                std::vector<Finding>* out) {
  static const std::regex kRawAccess(R"(\bAccess\s*::)");
  static const std::regex kBraceFootprint(R"(\bFootprint\s*\{)");
  static const std::regex kTypeDecl(R"(\b(?:struct|class)\s+Footprint\b)");
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    const std::string& line = f.code[i];
    if (std::regex_search(line, kRawAccess)) {
      out->push_back({f.path, static_cast<int>(i) + 1,
                      "dag-footprint-helpers",
                      "raw runtime::Access value in DAG code; declare "
                      "footprints with the runtime::read/write/rw helpers "
                      "so access modes stay auditable"});
      continue;
    }
    if (std::regex_search(line, kBraceFootprint) &&
        !std::regex_search(line, kTypeDecl)) {
      out->push_back({f.path, static_cast<int>(i) + 1,
                      "dag-footprint-helpers",
                      "brace-built runtime::Footprint entry; use the "
                      "runtime::read/write/rw helpers instead of aggregate "
                      "construction"});
    }
  }
}

// ----- rule: dag-task-phase -------------------------------------------

void rule_dag_task_phase(const SourceFile& f, const RuleConfig&,
                         std::vector<Finding>* out) {
  const std::vector<TaskCall> calls = task_calls(f);
  if (calls.empty()) return;
  const std::vector<Region> regions = function_regions(f);
  static const std::regex kIdentifier(R"(^[A-Za-z_][A-Za-z0-9_]*$)");

  for (const TaskCall& call : calls) {
    // The options are add_task's last argument and step's fourth.
    std::string last;
    if (!call.step && !call.args.empty()) last = trim_copy(call.args.back());
    if (call.step && call.args.size() > 3) last = trim_copy(call.args[3]);
    if (std::regex_match(last, kIdentifier)) {
      // Named TaskOptions: `<name>.phase` must be assigned somewhere in
      // the enclosing function (the whole file when no region matches —
      // e.g. options populated by a helper).
      int begin = 0;
      int end = static_cast<int>(f.code.size()) - 1;
      for (const Region& r : regions) {
        if (r.begin <= call.line && call.line <= r.end) {
          begin = r.begin;
          end = r.end;
          break;
        }
      }
      const std::string needle = last + ".phase";
      bool sets_phase = false;
      for (int ln = begin; ln <= end && !sets_phase; ++ln) {
        sets_phase = contains_token(f.code[static_cast<std::size_t>(ln)],
                                    needle);
      }
      if (!sets_phase) {
        out->push_back({f.path, call.line + 1, "dag-task-phase",
                        "TaskOptions '" + last +
                            "' passed to a task call never sets .phase; "
                            "every "
                            "DAG task names its observability phase so "
                            "telemetry and the profiler can attribute it"});
      }
    } else if (last.find(".phase") == std::string::npos) {
      out->push_back({f.path, call.line + 1, "dag-task-phase",
                      "task call site without a phase-bearing "
                      "TaskOptions argument; pass options with .phase set "
                      "so telemetry and the profiler can attribute the "
                      "task"});
    }
  }
}

// ----- rule: dag-capture-hygiene --------------------------------------

void rule_dag_capture_hygiene(const SourceFile& f, const RuleConfig&,
                              std::vector<Finding>* out) {
  static const std::regex kDefaultCapture(R"(\[\s*[&=]\s*[,\]])");
  for (const TaskCall& call : task_calls(f)) {
    for (std::size_t a = 0; a < call.arg_extent.size(); ++a) {
      // step's footprint builder runs while the graph is built, so it
      // may capture by reference; its body may run later and may not.
      if (call.step && a == 1) continue;
      for (const auto& [ln, seg] : call.arg_extent[a]) {
        if (std::regex_search(seg, kDefaultCapture)) {
          out->push_back({f.path, ln + 1, "dag-capture-hygiene",
                          "default lambda capture ([&] / [=]) in a task "
                          "body; capture tiles and indices explicitly so "
                          "the body provably touches only the declared "
                          "footprint"});
        }
      }
    }
  }
}

}  // namespace

// ----- catalog and defaults -------------------------------------------

const std::vector<RuleInfo>& rule_catalog() {
  static const std::vector<RuleInfo> kCatalog = {
      {"no-wall-clock",
       "simulated code must use the virtual clock, never the host's"},
      {"no-raw-randomness",
       "all randomness flows through seeded ftla::Rng so runs replay"},
      {"deterministic-serialization",
       "serializing functions must not iterate unordered containers"},
      {"exit-code-contract",
       "CLI exit paths use the shared ftla::common::kExit* codes"},
      {"metrics-naming",
       "metric names follow the dotted subsystem.noun[_unit] convention"},
      {"include-hygiene",
       "headers under src/ avoid heavyweight standard includes"},
      {"dag-footprint-helpers",
       "DAG footprints come from the read/write/rw helpers, never raw "
       "Access values"},
      {"dag-task-phase",
       "every add_task / step call site names its observability phase"},
      {"dag-capture-hygiene",
       "task bodies capture explicitly — no [&] or [=] defaults"},
  };
  return kCatalog;
}

Config default_config() {
  Config cfg;
  cfg.exclude = {"tests/lint_fixtures"};

  RuleConfig wall_clock;
  wall_clock.paths = {"src/sim", "src/fault", "src/abft"};
  cfg.rules["no-wall-clock"] = wall_clock;

  RuleConfig randomness;
  randomness.exempt = {"src/common/rng.hpp"};
  cfg.rules["no-raw-randomness"] = randomness;

  cfg.rules["deterministic-serialization"] = RuleConfig{};

  RuleConfig exit_codes;
  exit_codes.paths = {"tools"};
  cfg.rules["exit-code-contract"] = exit_codes;

  cfg.rules["metrics-naming"] = RuleConfig{};

  RuleConfig includes;
  includes.paths = {"src"};
  cfg.rules["include-hygiene"] = includes;

  RuleConfig dag_footprint;
  dag_footprint.paths = {"src/abft", "src/runtime"};
  dag_footprint.exempt = {"src/runtime/graph.hpp", "src/runtime/graph.cpp",
                          "src/runtime/sanitizer.hpp",
                          "src/runtime/sanitizer.cpp"};
  cfg.rules["dag-footprint-helpers"] = dag_footprint;

  RuleConfig dag_phase;
  dag_phase.paths = {"src/abft", "src/runtime"};
  cfg.rules["dag-task-phase"] = dag_phase;

  RuleConfig dag_capture;
  dag_capture.paths = {"src/abft", "src/runtime"};
  cfg.rules["dag-capture-hygiene"] = dag_capture;

  return cfg;
}

// ----- driver ---------------------------------------------------------

std::vector<Finding> lint_file(const SourceFile& file, const Config& config) {
  using RuleFn = void (*)(const SourceFile&, const RuleConfig&,
                          std::vector<Finding>*);
  static const std::map<std::string, RuleFn> kRules = {
      {"no-wall-clock", rule_no_wall_clock},
      {"no-raw-randomness", rule_no_raw_randomness},
      {"deterministic-serialization", rule_deterministic_serialization},
      {"exit-code-contract", rule_exit_code_contract},
      {"metrics-naming", rule_metrics_naming},
      {"include-hygiene", rule_include_hygiene},
      {"dag-footprint-helpers", rule_dag_footprint_helpers},
      {"dag-task-phase", rule_dag_task_phase},
      {"dag-capture-hygiene", rule_dag_capture_hygiene},
  };

  std::vector<Finding> findings;
  for (const RuleInfo& info : rule_catalog()) {
    const RuleConfig& rc = config.rule(info.name);
    if (!rc.enabled) continue;
    if (!rc.paths.empty() && !path_in_any(file.path, rc.paths)) continue;
    if (path_in_any(file.path, rc.exempt)) continue;

    std::vector<Finding> raw;
    kRules.at(info.name)(file, rc, &raw);
    for (Finding& fnd : raw) {
      if (!file.suppressed(fnd.line, fnd.rule)) {
        findings.push_back(std::move(fnd));
      }
    }
  }
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return findings;
}

std::vector<Finding> lint_paths(const std::vector<std::string>& roots,
                                const std::string& root, const Config& config,
                                std::vector<std::string>* io_errors) {
  namespace fs = std::filesystem;
  const auto lintable = [](const fs::path& p) {
    const std::string ext = p.extension().string();
    return ext == ".hpp" || ext == ".h" || ext == ".hh" || ext == ".cpp" ||
           ext == ".cc";
  };
  const auto skip_dir = [](const fs::path& p) {
    const std::string name = p.filename().string();
    return name == ".git" || name.rfind("build", 0) == 0 ||
           (!name.empty() && name.front() == '.');
  };

  std::set<std::string> files;  // relative paths, sorted + deduped
  for (const std::string& r : roots) {
    fs::path base = fs::path(root) / r;
    std::error_code ec;
    if (fs::is_regular_file(base, ec)) {
      files.insert(fs::relative(base, root, ec).generic_string());
      continue;
    }
    if (!fs::is_directory(base, ec)) {
      if (io_errors != nullptr) {
        io_errors->push_back("no such file or directory: " + r);
      }
      continue;
    }
    std::error_code walk_ec;
    fs::recursive_directory_iterator it(
        base, fs::directory_options::skip_permission_denied, walk_ec);
    if (walk_ec) {
      if (io_errors != nullptr) {
        io_errors->push_back("cannot walk " + r + ": " + walk_ec.message());
      }
      continue;
    }
    while (it != fs::recursive_directory_iterator()) {
      const fs::directory_entry entry = *it;
      if (entry.is_directory(walk_ec) && skip_dir(entry.path())) {
        it.disable_recursion_pending();
      } else if (entry.is_regular_file(walk_ec) && lintable(entry.path())) {
        std::error_code rel_ec;
        files.insert(
            fs::relative(entry.path(), root, rel_ec).generic_string());
      }
      it.increment(walk_ec);
      if (walk_ec) {
        if (io_errors != nullptr) {
          io_errors->push_back("walk error under " + r + ": " +
                               walk_ec.message());
        }
        break;
      }
    }
  }

  std::vector<Finding> findings;
  for (const std::string& rel : files) {
    if (path_in_any(rel, config.exclude)) continue;
    // A directory component may also be excluded mid-path.
    bool skip = false;
    fs::path parts(rel);
    for (const auto& part : parts) {
      if (skip_dir(part)) skip = true;
    }
    if (skip) continue;

    std::ifstream in(fs::path(root) / rel);
    if (!in) {
      if (io_errors != nullptr) io_errors->push_back("cannot read " + rel);
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const SourceFile scanned = scan_source(rel, buf.str());
    std::vector<Finding> file_findings = lint_file(scanned, config);
    findings.insert(findings.end(),
                    std::make_move_iterator(file_findings.begin()),
                    std::make_move_iterator(file_findings.end()));
  }
  return findings;
}

}  // namespace ftla::lint
