/**
 * @file
 * End-to-end tests for tools/shrimp_lint: every rule detects its
 * seeded fixture violations at the expected lines, inline
 * suppressions silence exactly their rule (a wrong rule id must NOT
 * suppress), and the baseline ratchet grandfathers, fails on growth,
 * and reports stale entries when a file comes clean.
 *
 * The harness shells out to the real binary over the fixture corpus
 * and parses --json output with the tests' mini_json parser, so the
 * exact CLI contract the run_checks.sh gate depends on is what gets
 * exercised. Paths are baked in at configure time
 * (SHRIMP_LINT_BIN/FIXTURES/REPO compile definitions).
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "../support/mini_json.hh"

namespace
{

std::string
env(const char *name)
{
    std::string n = name;
    if (n == "SHRIMP_LINT_BIN")
        return SHRIMP_LINT_BIN;
    if (n == "SHRIMP_LINT_FIXTURES")
        return SHRIMP_LINT_FIXTURES;
    if (n == "SHRIMP_LINT_REPO")
        return SHRIMP_LINT_REPO;
    ADD_FAILURE() << "unknown path key " << n;
    return "";
}

struct RunResult
{
    int exitCode = -1;
    std::string out;
    minijson::Value json;
    bool parsed = false;
};

/** Run `shrimp_lint --json <args>` and parse the report. */
RunResult
runLint(const std::string &args)
{
    RunResult r;
    std::string cmd = env("SHRIMP_LINT_BIN") + " --json " + args
                      + " 2>/dev/null";
    FILE *p = popen(cmd.c_str(), "r");
    EXPECT_NE(p, nullptr) << "popen failed: " << cmd;
    if (!p)
        return r;
    char buf[4096];
    std::size_t n;
    while ((n = fread(buf, 1, sizeof buf, p)) > 0)
        r.out.append(buf, n);
    int status = pclose(p);
    r.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    std::string err;
    r.parsed = minijson::parse(r.out, r.json, &err);
    EXPECT_TRUE(r.parsed) << "bad JSON (" << err << "):\n" << r.out;
    return r;
}

/** The (rule, line) pairs reported for @p file. */
std::set<std::pair<std::string, int>>
findingsFor(const RunResult &r, const std::string &file)
{
    std::set<std::pair<std::string, int>> out;
    const minijson::Value *arr = r.json.find("findings");
    if (!arr || !arr->isArray())
        return out;
    for (const auto &f : arr->array) {
        const minijson::Value *ff = f.find("file");
        const minijson::Value *rule = f.find("rule");
        const minijson::Value *line = f.find("line");
        if (ff && rule && line && ff->str == file)
            out.insert({rule->str, int(line->number)});
    }
    return out;
}

/** Fixture scan: every directory-scoped rule applies to the corpus. */
RunResult
scanFixture(const std::string &file, const std::string &extra = "")
{
    return runLint("--root=" + env("SHRIMP_LINT_FIXTURES")
                   + " --digest-dir=. --state-dir=. " + extra + " "
                   + file);
}

using Expected = std::set<std::pair<std::string, int>>;

TEST(LintRules, D1WallClockSitesAndAnnotatedSiteSuppressed)
{
    auto r = scanFixture("d1_wall_clock.cc");
    EXPECT_EQ(r.exitCode, 1);
    Expected want = {{"D1", 9}, {"D1", 16}, {"D1", 23}};
    EXPECT_EQ(findingsFor(r, "d1_wall_clock.cc"), want);
}

TEST(LintRules, D1AllowlistedFileIsExempt)
{
    // The same file scanned as part of the wall-clock allowlist (the
    // observability set) reports nothing.
    auto r = scanFixture("d1_wall_clock.cc",
                         "--wallclock-allow=d1_wall_clock.cc");
    EXPECT_EQ(r.exitCode, 0);
    EXPECT_TRUE(findingsFor(r, "d1_wall_clock.cc").empty()) << r.out;
}

TEST(LintRules, D2UnseededRandomness)
{
    auto r = scanFixture("d2_randomness.cc");
    EXPECT_EQ(r.exitCode, 1);
    Expected want = {{"D2", 8}, {"D2", 14}, {"D2", 21}, {"D2", 28}};
    EXPECT_EQ(findingsFor(r, "d2_randomness.cc"), want);
}

TEST(LintRules, D3UnorderedIterationInDigestDir)
{
    auto r = scanFixture("d3_unordered_iter.cc");
    EXPECT_EQ(r.exitCode, 1);
    Expected want = {{"D3", 16}, {"D3", 35}};
    EXPECT_EQ(findingsFor(r, "d3_unordered_iter.cc"), want);
}

TEST(LintRules, D3SilentOutsideDigestDirs)
{
    // Without the digest-dir override the fixture directory is not
    // digest-affecting, so hash-order iteration is tolerated there.
    auto r = runLint("--root=" + env("SHRIMP_LINT_FIXTURES")
                     + " --state-dir=. d3_unordered_iter.cc");
    EXPECT_EQ(r.exitCode, 0) << r.out;
}

TEST(LintRules, D4PointerHashingAndCasts)
{
    auto r = scanFixture("d4_pointer_order.cc");
    EXPECT_EQ(r.exitCode, 1);
    Expected want = {{"D4", 12}, {"D4", 18}};
    EXPECT_EQ(findingsFor(r, "d4_pointer_order.cc"), want);
}

TEST(LintRules, S1MutableStaticState)
{
    auto r = scanFixture("s1_static_state.cc");
    EXPECT_EQ(r.exitCode, 1);
    Expected want = {{"S1", 5}, {"S1", 7}, {"S1", 18}, {"S1", 32}};
    EXPECT_EQ(findingsFor(r, "s1_static_state.cc"), want);
}

TEST(LintRules, S2EventLabelLifetime)
{
    auto r = scanFixture("s2_event_label.cc");
    EXPECT_EQ(r.exitCode, 1);
    Expected want = {{"S2", 17}, {"S2", 19}, {"S2", 21}, {"S2", 23},
                     {"S2", 48}, {"S2", 50}};
    EXPECT_EQ(findingsFor(r, "s2_event_label.cc"), want);
}

TEST(LintRules, CleanFileIsClean)
{
    auto r = scanFixture("clean.cc");
    EXPECT_EQ(r.exitCode, 0) << r.out;
    const minijson::Value *clean = r.json.find("clean");
    ASSERT_NE(clean, nullptr);
    EXPECT_EQ(clean->kind, minijson::Value::Kind::Bool);
    EXPECT_TRUE(clean->boolean);
}

// ------------------------------------------------- suppressions

TEST(LintSuppressions, CorrectRuleIdSuppresses)
{
    auto r = scanFixture("suppress_ok.cc");
    EXPECT_EQ(r.exitCode, 0) << r.out;
    EXPECT_TRUE(findingsFor(r, "suppress_ok.cc").empty());
}

TEST(LintSuppressions, WrongRuleIdDoesNotSuppress)
{
    auto r = scanFixture("suppress_wrong_rule.cc");
    EXPECT_EQ(r.exitCode, 1);
    Expected want = {{"D1", 9}};
    EXPECT_EQ(findingsFor(r, "suppress_wrong_rule.cc"), want);
}

TEST(LintSuppressions, MalformedDirectivesAreFindings)
{
    auto r = scanFixture("suppress_malformed.cc");
    EXPECT_EQ(r.exitCode, 1);
    Expected want = {{"LINT", 7}, {"LINT", 15}};
    EXPECT_EQ(findingsFor(r, "suppress_malformed.cc"), want);
}

// ---------------------------------------------------- baseline

class LintBaseline : public ::testing::Test
{
  protected:
    /** Each case runs in its own process under ctest (and possibly
     *  concurrently), so the file is named for the case and the pid. */
    std::string
    writeBaseline(const std::string &body)
    {
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        std::string path = ::testing::TempDir() + "lint_baseline_"
                           + info->name() + "_"
                           + std::to_string(getpid()) + ".json";
        std::ofstream out(path);
        out << body;
        return path;
    }
};

TEST_F(LintBaseline, ExactEntrySuppressesAndReportsBaselined)
{
    std::string b = writeBaseline(R"({
      "findings": [
        {"file": "d1_wall_clock.cc", "rule": "D1", "count": 3,
         "reason": "fixture grandfathering"}
      ]
    })");
    auto r = scanFixture("d1_wall_clock.cc", "--baseline=" + b);
    EXPECT_EQ(r.exitCode, 0) << r.out;
    EXPECT_TRUE(findingsFor(r, "d1_wall_clock.cc").empty());
    const minijson::Value *bl = r.json.find("baselined");
    ASSERT_NE(bl, nullptr);
    EXPECT_EQ(int(bl->number), 3);
}

TEST_F(LintBaseline, RatchetFailsWhenFindingsGrowPastCount)
{
    std::string b = writeBaseline(R"({
      "findings": [
        {"file": "d1_wall_clock.cc", "rule": "D1", "count": 2,
         "reason": "only two grandfathered"}
      ]
    })");
    auto r = scanFixture("d1_wall_clock.cc", "--baseline=" + b);
    EXPECT_EQ(r.exitCode, 1);
    // Two of the three findings are absorbed; one fails the gate.
    EXPECT_EQ(findingsFor(r, "d1_wall_clock.cc").size(), 1u);
}

TEST_F(LintBaseline, WrongRuleEntryDoesNotSuppress)
{
    std::string b = writeBaseline(R"({
      "findings": [
        {"file": "d1_wall_clock.cc", "rule": "D2", "count": 3,
         "reason": "names the wrong rule on purpose"}
      ]
    })");
    auto r = scanFixture("d1_wall_clock.cc", "--baseline=" + b);
    EXPECT_EQ(r.exitCode, 1);
    // All three D1 findings survive, and the D2 entry is stale.
    EXPECT_EQ(findingsFor(r, "d1_wall_clock.cc").size(), 3u);
    const minijson::Value *stale = r.json.find("stale_baseline");
    ASSERT_NE(stale, nullptr);
    ASSERT_TRUE(stale->isArray());
    EXPECT_EQ(stale->array.size(), 1u);
}

TEST_F(LintBaseline, EntryForNowCleanFileIsStale)
{
    std::string b = writeBaseline(R"({
      "findings": [
        {"file": "clean.cc", "rule": "D1", "count": 1,
         "reason": "this file was fixed since"}
      ]
    })");
    auto r = scanFixture("clean.cc", "--baseline=" + b);
    EXPECT_EQ(r.exitCode, 1) << "stale baseline must fail the gate";
    const minijson::Value *stale = r.json.find("stale_baseline");
    ASSERT_NE(stale, nullptr);
    ASSERT_TRUE(stale->isArray());
    ASSERT_EQ(stale->array.size(), 1u);
    const minijson::Value *file = stale->array[0].find("file");
    ASSERT_NE(file, nullptr);
    EXPECT_EQ(file->str, "clean.cc");
    const minijson::Value *actual = stale->array[0].find("actual");
    ASSERT_NE(actual, nullptr);
    EXPECT_EQ(int(actual->number), 0);
}

TEST_F(LintBaseline, EntryWithoutReasonIsRejected)
{
    std::string b = writeBaseline(R"({
      "findings": [
        {"file": "clean.cc", "rule": "D1", "count": 1, "reason": ""}
      ]
    })");
    RunResult r;
    std::string cmd = env("SHRIMP_LINT_BIN") + " --root="
                      + env("SHRIMP_LINT_FIXTURES") + " --baseline="
                      + b + " clean.cc 2>&1";
    FILE *p = popen(cmd.c_str(), "r");
    ASSERT_NE(p, nullptr);
    char buf[4096];
    std::size_t n;
    while ((n = fread(buf, 1, sizeof buf, p)) > 0)
        r.out.append(buf, n);
    int status = pclose(p);
    EXPECT_EQ(WEXITSTATUS(status), 2) << r.out;
    EXPECT_NE(r.out.find("reason"), std::string::npos);
}

// ------------------------------------------------- whole corpus

TEST(LintCorpus, EveryRuleFiresAcrossTheFixtureTree)
{
    // One scan of the whole corpus: the counts block must name every
    // rule, proving no checker is accidentally scoped out.
    auto r = runLint("--root=" + env("SHRIMP_LINT_FIXTURES")
                     + " --digest-dir=. --state-dir=. .");
    EXPECT_EQ(r.exitCode, 1);
    const minijson::Value *counts = r.json.find("counts");
    ASSERT_NE(counts, nullptr);
    for (const char *rule :
         {"D1", "D2", "D3", "D4", "S1", "S2", "LINT"}) {
        const minijson::Value *c = counts->find(rule);
        ASSERT_NE(c, nullptr) << rule << " never fired";
        EXPECT_GT(int(c->number), 0) << rule;
    }
}

TEST(LintCorpus, RepoTreeIsCleanUnderCommittedBaseline)
{
    // The real gate: the repository itself, with the committed
    // baseline, must be clean (run_checks.sh enforces the same).
    std::string repo = env("SHRIMP_LINT_REPO");
    auto r = runLint("--root=" + repo + " --baseline=" + repo
                     + "/tools/lint_baseline.json");
    EXPECT_EQ(r.exitCode, 0) << r.out;
}

} // namespace
