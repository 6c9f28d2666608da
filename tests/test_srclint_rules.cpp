// Per-rule fire/silent coverage for `pasched srclint` over the planted
// fixture corpus (tests/srclint/fixtures mirrors the repo layout, so the
// path-scoped rules see realistic subsystem paths), plus unit coverage of
// the portable frontend: lexing, suppression attachment, and structural
// recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "srclint/model.hpp"
#include "srclint/runner.hpp"
#include "srclint/source.hpp"

using namespace pasched;

namespace {

const char* const kFixtureRoot = PASCHED_REPO_ROOT "/tests/srclint/fixtures";

// The PSL4xx family alone: the alloc/contend families have their own
// verdicts on some of these fixtures (tests/srclint/golden_verdicts.json).
const std::vector<std::string> kArchRules = {"PSL401", "PSL402", "PSL403",
                                             "PSL404", "PSL405", "PSL406"};

srclint::SrclintReport scan(const std::string& rel,
                            std::vector<std::string> only = {}) {
  srclint::SrclintOptions opts;
  opts.root = kFixtureRoot;
  opts.select.only = std::move(only);
  return srclint::run_files(opts, {rel});
}

std::size_t count_rule(const srclint::SrclintReport& rep,
                       const std::string& rule) {
  return static_cast<std::size_t>(
      std::count_if(rep.findings.begin(), rep.findings.end(),
                    [&](const analysis::Diagnostic& d) {
                      return d.rule == rule;
                    }));
}

struct RuleCase {
  const char* rule;
  const char* fire;
  const char* silent;
  std::size_t expected_fire;
};

const RuleCase kCases[] = {
    {"PSL401", "src/kern/psl401_fire.cxx", "src/kern/psl401_silent.cxx", 3},
    {"PSL402", "src/kern/psl402_fire.cxx", "src/kern/psl402_silent.cxx", 2},
    {"PSL403", "src/sim/psl403_fire.cxx", "src/sim/psl403_silent.cxx", 6},
    {"PSL404", "src/sim/psl404_fire.cxx", "src/sim/psl404_silent.cxx", 3},
    {"PSL405", "src/net/psl405_fire.cxx", "src/net/psl405_silent.cxx", 3},
    {"PSL406", "src/daemons/psl406_fire.cxx", "src/daemons/psl406_silent.cxx",
     3},
};

}  // namespace

TEST(SrclintRules, FireFixturesFireExactlyTheirRule) {
  for (const RuleCase& c : kCases) {
    const srclint::SrclintReport rep = scan(c.fire, kArchRules);
    EXPECT_EQ(count_rule(rep, c.rule), c.expected_fire)
        << c.fire << ":\n" << rep.str();
    // No cross-talk: a planted fixture trips only the rule it plants.
    EXPECT_EQ(rep.findings.size(), c.expected_fire) << c.fire << ":\n"
                                                    << rep.str();
    EXPECT_TRUE(analysis::any_errors(rep.findings));
  }
}

TEST(SrclintRules, SilentFixturesStaySilent) {
  for (const RuleCase& c : kCases) {
    const srclint::SrclintReport rep = scan(c.silent);
    EXPECT_TRUE(rep.findings.empty()) << c.silent << ":\n" << rep.str();
  }
}

TEST(SrclintRules, SuppressionIsHonoredAndCounted) {
  const srclint::SrclintReport rep = scan("src/sim/psl404_silent.cxx");
  EXPECT_TRUE(rep.findings.empty());
  EXPECT_EQ(rep.stats.suppressions_honored, 1u);
}

TEST(SrclintRules, OnlyFilterRestrictsRules) {
  srclint::SrclintOptions opts;
  opts.root = kFixtureRoot;
  opts.select.only = {"PSL402"};
  const srclint::SrclintReport rep =
      srclint::run_files(opts, {"src/kern/psl401_fire.cxx"});
  EXPECT_TRUE(rep.findings.empty());
}

TEST(SrclintLexer, TokensCarryLinesAndKinds) {
  const srclint::SourceFile f = srclint::lex_string(
      "int x = 42;\nconst char* s = \"a \\\" quote\";\n", "src/sim/t.cpp");
  ASSERT_GE(f.tokens.size(), 9u);
  EXPECT_EQ(f.tokens[0].text, "int");
  EXPECT_EQ(f.tokens[0].kind, srclint::Tok::Identifier);
  EXPECT_EQ(f.tokens[3].text, "42");
  EXPECT_EQ(f.tokens[3].kind, srclint::Tok::Number);
  EXPECT_EQ(f.tokens[0].line, 1);
  const auto str = std::find_if(f.tokens.begin(), f.tokens.end(),
                                [](const srclint::Token& t) {
                                  return t.kind == srclint::Tok::String;
                                });
  ASSERT_NE(str, f.tokens.end());
  EXPECT_EQ(str->line, 2);
}

TEST(SrclintLexer, CommentsStringsAndPpLinesAreNeutralized) {
  const srclint::SourceFile f = srclint::lex_string(
      "// throw in comment\n"
      "/* new in block */\n"
      "const char* s = \"throw new std::mutex\";\n"
      "#define HELPER throw\n"
      "int live;\n",
      "src/sim/t.cpp");
  for (const srclint::Token& t : f.tokens) {
    if (t.kind == srclint::Tok::Identifier && !t.pp) {
      EXPECT_TRUE(t.text != "throw" && t.text != "new" && t.text != "mutex")
          << t.text;
    }
  }
}

TEST(SrclintLexer, SuppressionCoversOwnAndNextLine) {
  const srclint::SourceFile f = srclint::lex_string(
      "int a;  // srclint-ok(PSL405): same line\n"
      "int b;\n"
      "// srclint-ok(PSL406): next line\n"
      "int c;\n",
      "src/sim/t.cpp");
  EXPECT_TRUE(f.suppressed("PSL405", 1));
  EXPECT_TRUE(f.suppressed("PSL405", 2));  // trailing also covers line+1
  EXPECT_FALSE(f.suppressed("PSL405", 3));
  EXPECT_TRUE(f.suppressed("PSL406", 4));
  EXPECT_FALSE(f.suppressed("PSL406", 5));
}

TEST(SrclintLexer, CommentBlockRidesDownToTheStatement) {
  const srclint::SourceFile f = srclint::lex_string(
      "// srclint-ok(PSL401): a justification long enough\n"
      "// to need several comment lines before the code.\n"
      "int target;\n",
      "src/sim/t.cpp");
  EXPECT_TRUE(f.suppressed("PSL401", 3));
}

TEST(SrclintLexer, ConsecutiveTrailingSuppressionsStayPut) {
  const srclint::SourceFile f = srclint::lex_string(
      "int a;  // srclint-ok(PSL404): anchors to line 1\n"
      "int b;  // srclint-ok(PSL405): anchors to line 2\n",
      "src/sim/t.cpp");
  EXPECT_TRUE(f.suppressed("PSL404", 1));
  EXPECT_TRUE(f.suppressed("PSL405", 2));
  EXPECT_FALSE(f.suppressed("PSL404", 3));
}

TEST(SrclintModel, FindsMarkedFunctionBodies) {
  const srclint::SourceFile f = srclint::lex_string(
      "PASCHED_HOT void fast(int x) { body(x); }\n"
      "PASCHED_HOT int decl_only(int x);\n"
      "void cold() { other(); }\n",
      "src/sim/t.cpp");
  const auto fns = srclint::find_marked_functions(f, "PASCHED_HOT");
  ASSERT_EQ(fns.size(), 1u);
  EXPECT_EQ(fns[0].name, "fast");
}

TEST(SrclintModel, MacroCallArgumentsAreDelimited) {
  const srclint::SourceFile f = srclint::lex_string(
      "void g() { PASCHED_CHECK(f(a, b) && c); }\n", "src/sim/t.cpp");
  const auto calls = srclint::find_macro_calls(f, {"PASCHED_CHECK"});
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(f.tokens[calls[0].args_begin].text, "f");
  EXPECT_EQ(f.tokens[calls[0].args_end].text, ")");
}

TEST(SrclintReport, JsonIsWellFormedEnoughForCi) {
  const srclint::SrclintReport rep = scan("src/kern/psl402_fire.cxx");
  const std::string js = rep.json();
  EXPECT_NE(js.find("\"tool\": \"pasched-srclint\""), std::string::npos);
  EXPECT_NE(js.find("\"rule\": \"PSL402\""), std::string::npos);
  EXPECT_EQ(std::count(js.begin(), js.end(), '{'),
            std::count(js.begin(), js.end(), '}'));
}
