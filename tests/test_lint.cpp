// Tests for ftla_lint: scanner behavior, config round-tripping, every
// rule firing on its bad fixture and staying silent on its good twin,
// suppression handling, and the meta-test that the real tree is clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/lint.hpp"

namespace {

using ftla::lint::Config;
using ftla::lint::Finding;
using ftla::lint::SourceFile;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Reads tests/lint_fixtures/<rel> and lints it as if it lived at the
/// project-relative `virtual_path` (so path-scoped rules see the
/// intended location).
std::vector<Finding> lint_fixture(const std::string& rel,
                                  const std::string& virtual_path) {
  const std::string text =
      read_file(std::string(FTLA_LINT_FIXTURE_DIR) + "/" + rel);
  EXPECT_FALSE(text.empty()) << rel;
  return ftla::lint::lint_file(ftla::lint::scan_source(virtual_path, text),
                               ftla::lint::default_config());
}

std::vector<int> lines_of(const std::vector<Finding>& findings,
                          const std::string& rule) {
  std::vector<int> lines;
  for (const Finding& f : findings) {
    EXPECT_EQ(f.rule, rule) << f.file << ":" << f.line << " " << f.message;
    lines.push_back(f.line);
  }
  return lines;
}

// ----------------------------- scanner --------------------------------

TEST(Scanner, BlanksCommentsAndStringContents) {
  const SourceFile f = ftla::lint::scan_source(
      "src/x.cpp",
      "int a = 1; // rand()\n"
      "const char* s = \"rand()\";\n"
      "/* rand()\n"
      "   rand() */ int b = 2;\n");
  ASSERT_EQ(f.code.size(), 4u);
  EXPECT_EQ(f.code[0].find("rand"), std::string::npos);
  EXPECT_EQ(f.code[1].find("rand"), std::string::npos);
  EXPECT_NE(f.code[1].find('"'), std::string::npos);  // quotes survive
  EXPECT_EQ(f.code[2].find("rand"), std::string::npos);
  EXPECT_NE(f.code[3].find("int b"), std::string::npos);
  // nocomment keeps string contents but not comments.
  EXPECT_NE(f.nocomment[1].find("rand()"), std::string::npos);
  EXPECT_EQ(f.nocomment[0].find("rand"), std::string::npos);
}

TEST(Scanner, HandlesRawStringsAndDigitSeparators) {
  const SourceFile f = ftla::lint::scan_source(
      "src/x.cpp",
      "auto re = R\"(time\\(\\))\";\n"
      "long big = 1'000'000;\n"
      "char c = 'x';\n");
  EXPECT_EQ(f.code[0].find("time"), std::string::npos);
  EXPECT_NE(f.nocomment[0].find("time"), std::string::npos);
  EXPECT_NE(f.code[1].find("1'000'000"), std::string::npos);
  EXPECT_EQ(f.code[2].find('x'), std::string::npos);  // char contents blank
}

TEST(Scanner, SuppressionParsing) {
  const SourceFile f = ftla::lint::scan_source(
      "src/x.cpp",
      "int a;  // ftla-lint: allow(no-wall-clock)\n"
      "int b;\n"
      "// ftla-lint: allow(no-wall-clock, metrics-naming)\n"
      "int c;\n");
  EXPECT_TRUE(f.suppressed(1, "no-wall-clock"));
  EXPECT_FALSE(f.suppressed(1, "metrics-naming"));
  EXPECT_TRUE(f.suppressed(2, "no-wall-clock"));  // line above counts
  EXPECT_FALSE(f.suppressed(2, "metrics-naming"));
  EXPECT_TRUE(f.suppressed(4, "metrics-naming"));
  EXPECT_TRUE(f.suppressed(4, "no-wall-clock"));
  EXPECT_FALSE(f.suppressed(4, "include-hygiene"));
}

TEST(Scanner, HeaderDetection) {
  EXPECT_TRUE(ftla::lint::scan_source("src/a.hpp", "").is_header());
  EXPECT_TRUE(ftla::lint::scan_source("src/a.h", "").is_header());
  EXPECT_FALSE(ftla::lint::scan_source("src/a.cpp", "").is_header());
}

// ------------------------------ config --------------------------------

TEST(Config, DefaultRoundTripsThroughFormatAndParse) {
  const Config def = ftla::lint::default_config();
  Config back;
  std::string error;
  ASSERT_TRUE(
      ftla::lint::parse_config(ftla::lint::format_config(def), &back, &error))
      << error;
  EXPECT_EQ(def, back);
}

TEST(Config, PartialSectionKeepsDefaultScoping) {
  Config cfg;
  std::string error;
  ASSERT_TRUE(ftla::lint::parse_config(
      "version = 1\n[rule.no-wall-clock]\nenabled = false\n", &cfg, &error))
      << error;
  const ftla::lint::RuleConfig& rc = cfg.rule("no-wall-clock");
  EXPECT_FALSE(rc.enabled);
  // Scoping inherited from the built-in default, not wiped.
  EXPECT_EQ(rc.paths, ftla::lint::default_config().rule("no-wall-clock").paths);
}

TEST(Config, UnknownRuleAndKeyAreErrors) {
  Config cfg;
  std::string error;
  EXPECT_FALSE(ftla::lint::parse_config("[rule.no-such-rule]\n", &cfg, &error));
  EXPECT_NE(error.find("no-such-rule"), std::string::npos);
  EXPECT_FALSE(ftla::lint::parse_config(
      "[rule.no-wall-clock]\nseverity = 3\n", &cfg, &error));
  EXPECT_NE(error.find("severity"), std::string::npos);
  EXPECT_FALSE(ftla::lint::parse_config("version = 2\n", &cfg, &error));
}

TEST(Config, MissingRuleFallsBackToDefaults) {
  Config cfg;  // empty rules map
  EXPECT_TRUE(cfg.rule("no-wall-clock").enabled);
  EXPECT_FALSE(cfg.rule("no-wall-clock").paths.empty());
}

TEST(Config, CheckedInConfigMatchesBuiltInDefaults) {
  Config cfg;
  std::string error;
  ASSERT_TRUE(ftla::lint::load_config(
      std::string(FTLA_LINT_SOURCE_DIR) + "/.ftla_lint.toml", &cfg, &error))
      << error;
  EXPECT_EQ(cfg, ftla::lint::default_config());
}

// ------------------------------ rules ---------------------------------

TEST(RuleCatalog, HasAtLeastFiveRules) {
  EXPECT_GE(ftla::lint::rule_catalog().size(), 5u);
}

TEST(NoWallClock, FiresOnBadFixture) {
  const auto findings =
      lint_fixture("bad/no_wall_clock.cpp", "src/sim/fixture.cpp");
  const std::vector<int> lines = lines_of(findings, "no-wall-clock");
  EXPECT_EQ(lines, (std::vector<int>{7, 12, 16, 20}));
}

TEST(NoWallClock, SilentOnGoodFixtureAndOutOfScope) {
  EXPECT_TRUE(
      lint_fixture("good/no_wall_clock.cpp", "src/sim/fixture.cpp").empty());
  // Out of the rule's path scope (bench code may read host clocks).
  EXPECT_TRUE(
      lint_fixture("bad/no_wall_clock.cpp", "bench/fixture.cpp").empty());
}

TEST(NoRawRandomness, FiresOnBadFixture) {
  const auto findings =
      lint_fixture("bad/no_raw_randomness.cpp", "src/abft/fixture.cpp");
  const std::vector<int> lines = lines_of(findings, "no-raw-randomness");
  EXPECT_EQ(lines, (std::vector<int>{7, 11, 15}));
}

TEST(NoRawRandomness, SilentOnGoodFixtureAndExemptPath) {
  EXPECT_TRUE(
      lint_fixture("good/no_raw_randomness.cpp", "src/obs/fixture.cpp")
          .empty());
  // The seeded-RNG implementation itself is the one sanctioned user.
  EXPECT_TRUE(
      lint_fixture("bad/no_raw_randomness.cpp", "src/common/rng.hpp").empty());
}

TEST(DeterministicSerialization, FiresOnBadFixture) {
  const auto findings = lint_fixture("bad/deterministic_serialization.cpp",
                                     "src/obs/fixture.cpp");
  const std::vector<int> lines =
      lines_of(findings, "deterministic-serialization");
  EXPECT_EQ(lines, (std::vector<int>{9, 18}));
}

TEST(DeterministicSerialization, SilentOnGoodFixture) {
  EXPECT_TRUE(lint_fixture("good/deterministic_serialization.cpp",
                           "src/obs/fixture.cpp")
                  .empty());
}

TEST(ExitCodeContract, FiresOnBadFixture) {
  const auto findings =
      lint_fixture("bad/exit_code_cli.cpp", "tools/fixture_cli.cpp");
  const std::vector<int> lines = lines_of(findings, "exit-code-contract");
  // exit(2), EXIT_FAILURE, two numeric returns, and the
  // never-mentions-kExit finding anchored at main.
  EXPECT_EQ(lines, (std::vector<int>{6, 8, 11, 14, 16}));
}

TEST(ExitCodeContract, OnlyAppliesToCliTranslationUnits) {
  EXPECT_TRUE(
      lint_fixture("bad/exit_code_cli.cpp", "tools/helper.cpp").empty());
  EXPECT_TRUE(
      lint_fixture("bad/exit_code_cli.cpp", "src/fault/campaign.cpp").empty());
}

TEST(ExitCodeContract, SilentOnGoodFixture) {
  EXPECT_TRUE(
      lint_fixture("good/exit_code_cli.cpp", "tools/fixture_cli.cpp").empty());
}

TEST(MetricsNaming, FiresOnBadFixture) {
  const auto findings =
      lint_fixture("bad/metrics_naming.cpp", "src/obs/fixture.cpp");
  const std::vector<int> lines = lines_of(findings, "metrics-naming");
  EXPECT_EQ(lines, (std::vector<int>{16, 17, 18, 19, 20, 21, 22}));
}

TEST(MetricsNaming, SilentOnGoodFixture) {
  EXPECT_TRUE(
      lint_fixture("good/metrics_naming.cpp", "src/obs/fixture.cpp").empty());
}

TEST(MetricsNaming, NamespaceAllowlistIsConfigurable) {
  // With `extra` overriding the built-in namespace list, "wallclock.*"
  // becomes legal and every abft/sim/profile name becomes a finding.
  Config cfg = ftla::lint::default_config();
  cfg.rules["metrics-naming"].extra = {"wallclock"};
  const std::string text = read_file(std::string(FTLA_LINT_FIXTURE_DIR) +
                                     "/bad/metrics_naming.cpp");
  const auto findings = ftla::lint::lint_file(
      ftla::lint::scan_source("src/obs/fixture.cpp", text), cfg);
  const std::vector<int> lines = lines_of(findings, "metrics-naming");
  // Lines 16-19 and 21 still violate the shape rule; the wallclock.*
  // names on lines 20 and 22 are now allowed.
  EXPECT_EQ(lines, (std::vector<int>{16, 17, 18, 19, 21}));

  const auto good = ftla::lint::lint_file(
      ftla::lint::scan_source(
          "src/obs/fixture.cpp",
          "struct R { void set_gauge(const char*, double); };\n"
          "void f(R& r) { r.set_gauge(\"wallclock.reads_total\", 1.0); }\n"),
      cfg);
  EXPECT_TRUE(good.empty());
}

TEST(IncludeHygiene, FiresOnBadHeaderOnly) {
  const auto findings =
      lint_fixture("bad/include_hygiene.hpp", "src/common/fixture.hpp");
  const std::vector<int> lines = lines_of(findings, "include-hygiene");
  EXPECT_EQ(lines, (std::vector<int>{5, 6}));
  // The same content in a .cpp is fine — the rule is header-scoped.
  EXPECT_TRUE(
      lint_fixture("bad/include_hygiene.hpp", "src/common/fixture.cpp")
          .empty());
}

TEST(IncludeHygiene, SilentOnGoodFixture) {
  EXPECT_TRUE(
      lint_fixture("good/include_hygiene.hpp", "src/common/fixture.hpp")
          .empty());
}

TEST(MetricsNaming, FiresOnRuntimeNamespaceBadFixture) {
  const auto findings =
      lint_fixture("bad/metrics_runtime.cpp", "src/runtime/fixture.cpp");
  const std::vector<int> lines = lines_of(findings, "metrics-naming");
  EXPECT_EQ(lines, (std::vector<int>{10, 11, 12, 13}));
}

TEST(MetricsNaming, SilentOnRuntimeNamespaceGoodFixture) {
  EXPECT_TRUE(
      lint_fixture("good/metrics_runtime.cpp", "src/runtime/fixture.cpp")
          .empty());
}

TEST(MetricsNaming, FiresOnTraceNamespaceBadFixture) {
  const auto findings =
      lint_fixture("bad/metrics_trace.cpp", "src/obs/fixture.cpp");
  const std::vector<int> lines = lines_of(findings, "metrics-naming");
  EXPECT_EQ(lines, (std::vector<int>{11, 12, 13, 14, 15}));
}

TEST(MetricsNaming, SilentOnTraceNamespaceGoodFixture) {
  EXPECT_TRUE(
      lint_fixture("good/metrics_trace.cpp", "src/obs/fixture.cpp").empty());
}

TEST(DagFootprintHelpers, FiresOnBadFixture) {
  const auto findings =
      lint_fixture("bad/dag_footprint.cpp", "src/abft/fixture.cpp");
  const std::vector<int> lines = lines_of(findings, "dag-footprint-helpers");
  EXPECT_EQ(lines, (std::vector<int>{17, 21, 25}));
}

TEST(DagFootprintHelpers, SilentOnGoodFixtureExemptAndOutOfScope) {
  EXPECT_TRUE(
      lint_fixture("good/dag_footprint.cpp", "src/abft/fixture.cpp").empty());
  // The graph/sanitizer internals legitimately handle raw Access values.
  EXPECT_TRUE(
      lint_fixture("bad/dag_footprint.cpp", "src/runtime/graph.cpp").empty());
  // Outside src/abft + src/runtime the DAG rules do not apply.
  EXPECT_TRUE(
      lint_fixture("bad/dag_footprint.cpp", "src/obs/fixture.cpp").empty());
}

TEST(DagTaskPhase, FiresOnBadFixture) {
  const auto findings =
      lint_fixture("bad/dag_task_phase.cpp", "src/abft/fixture.cpp");
  const std::vector<int> lines = lines_of(findings, "dag-task-phase");
  EXPECT_EQ(lines, (std::vector<int>{29, 34, 37}));
}

TEST(DagTaskPhase, SilentOnGoodFixtureAndOutOfScope) {
  EXPECT_TRUE(
      lint_fixture("good/dag_task_phase.cpp", "src/abft/fixture.cpp").empty());
  EXPECT_TRUE(
      lint_fixture("bad/dag_task_phase.cpp", "tests/fixture.cpp").empty());
}

TEST(DagCaptureHygiene, FiresOnBadFixture) {
  const auto findings =
      lint_fixture("bad/dag_capture.cpp", "src/abft/fixture.cpp");
  const std::vector<int> lines = lines_of(findings, "dag-capture-hygiene");
  EXPECT_EQ(lines, (std::vector<int>{31, 33, 35}));
}

TEST(DagCaptureHygiene, SilentOnGoodFixture) {
  EXPECT_TRUE(
      lint_fixture("good/dag_capture.cpp", "src/abft/fixture.cpp").empty());
}

// The drivers build tasks through step(name, footprint builder, body,
// options, stream), which either runs the body at once or hands it to
// add_task with what the builder appended to a reused buffer. The DAG
// rules must see through it: the builder (argument 1) may capture by
// reference, and the options are argument 3.
TEST(DagStepHelper, FiresOnBadFixture) {
  const auto findings =
      lint_fixture("bad/dag_step.cpp", "src/abft/fixture.cpp");
  std::vector<int> capture;
  std::vector<int> phase;
  for (const Finding& f : findings) {
    if (f.rule == "dag-capture-hygiene") capture.push_back(f.line);
    if (f.rule == "dag-task-phase") phase.push_back(f.line);
  }
  EXPECT_EQ(capture, (std::vector<int>{37, 42}));
  EXPECT_EQ(phase, (std::vector<int>{44, 48}));
  EXPECT_EQ(findings.size(), 4u);
}

TEST(DagStepHelper, SilentOnGoodFixtureAndOutOfScope) {
  EXPECT_TRUE(
      lint_fixture("good/dag_step.cpp", "src/abft/fixture.cpp").empty());
  EXPECT_TRUE(lint_fixture("bad/dag_step.cpp", "tests/fixture.cpp").empty());
}

// --------------------------- suppression ------------------------------

TEST(Suppression, AllowCommentSilencesNamedRule) {
  EXPECT_TRUE(
      lint_fixture("good/suppressed.cpp", "src/sim/fixture.cpp").empty());
}

TEST(Suppression, WrongRuleNameDoesNotSilence) {
  const auto findings =
      lint_fixture("bad/suppressed_wrong_rule.cpp", "src/sim/fixture.cpp");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "no-wall-clock");
}

// ----------------------------- meta-test ------------------------------

// The real tree must be clean under the checked-in configuration: this
// is the same invocation CI runs (docs/static-analysis.md).
TEST(MetaLint, RealTreeIsClean) {
  Config cfg;
  std::string error;
  ASSERT_TRUE(ftla::lint::load_config(
      std::string(FTLA_LINT_SOURCE_DIR) + "/.ftla_lint.toml", &cfg, &error))
      << error;
  std::vector<std::string> io_errors;
  const std::vector<Finding> findings = ftla::lint::lint_paths(
      {"src", "tools", "tests"}, FTLA_LINT_SOURCE_DIR, cfg, &io_errors);
  EXPECT_TRUE(io_errors.empty())
      << "first: " << (io_errors.empty() ? "" : io_errors.front());
  for (const Finding& f : findings) {
    ADD_FAILURE() << f.file << ":" << f.line << ": [" << f.rule << "] "
                  << f.message;
  }
}

TEST(MetaLint, OutputIsDeterministic) {
  Config cfg = ftla::lint::default_config();
  cfg.exclude.clear();  // let the fixture corpus lint
  const auto run = [&] {
    std::vector<std::string> io_errors;
    std::vector<Finding> fs = ftla::lint::lint_paths(
        {"tests/lint_fixtures"}, FTLA_LINT_SOURCE_DIR, cfg, &io_errors);
    std::vector<std::string> flat;
    flat.reserve(fs.size());
    for (const Finding& f : fs) {
      flat.push_back(f.file + ":" + std::to_string(f.line) + ":" + f.rule);
    }
    return flat;
  };
  const std::vector<std::string> first = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, run());
}

}  // namespace
