/**
 * @file
 * shrimp_lint: the repo's determinism & shard-safety contract,
 * enforced at source level.
 *
 * Everything this simulator promises — bit-identical digests across
 * shard counts, per-(seed,src,dst) fault streams, replayable
 * model-check counterexamples — dies quietly the moment someone reads
 * a wall clock in the event path, iterates an unordered container
 * into a digest, or parks mutable state at namespace scope where two
 * shard workers can both reach it. The runtime auditor (PR 2) catches
 * such bugs after they corrupt a run; this tool rejects them before
 * they compile into one.
 *
 * It is deliberately not a clang plugin: a small hand-rolled lexer
 * plus token-pattern rules means it builds and runs everywhere
 * tools/run_checks.sh does (no libclang on the box), in well under a
 * second for the whole tree. The price is heuristic scope tracking
 * rather than a real AST; the rules below document their blind spots.
 *
 * Rules (all severity error):
 *   D1  wall-clock read (`steady_clock`, `system_clock`, `time()`,
 *       `clock_gettime`, ...) outside the allowlisted observability
 *       set (sim/profiler, sim/trace_sink, bench/bench_common).
 *   D2  unseeded randomness: `rand`/`srand`/`random_device` anywhere;
 *       `mt19937`/`default_random_engine` constructed without a
 *       seed-like argument (something named *seed*, sim::Random, or
 *       SplitMix64).
 *   D3  iteration over `std::unordered_map`/`unordered_set` in a
 *       digest-affecting directory (src/sim, src/shrimp,
 *       src/workload, src/dma) without an order-insensitive
 *       annotation. Hash order is libstdc++-version- and
 *       pointer-dependent; it must never reach a digest.
 *   D4  pointer identity feeding ordering or hashing:
 *       `std::hash<T *>` and `reinterpret_cast<uintptr_t>`. Pointer
 *       values differ run to run under ASLR.
 *   S1  mutable namespace-scope / static-local / static-member state
 *       in src/sim or src/shrimp without a
 *       `// shrimp-lint: shard-safe(<reason>)` annotation. Shard
 *       workers run concurrently; cross-shard data must flow through
 *       NodeRouter::post, not globals.
 *   S2  event labels passed to any entry point that stores them —
 *       EventQueue::schedule/scheduleIn/scheduleStamped and
 *       NodeRouter::post — must be string literals (the queue stores
 *       the pointer): an argument
 *       built from `.c_str()`, `std::string`, `to_string`, or `+`
 *       concatenation dangles once the temporary dies.
 *
 * Suppressions:
 *   // shrimp-lint: allow(D1) <reason>          one rule (or a comma
 *                                               list), reason required
 *   // shrimp-lint: shard-safe(<reason>)        alias for allow(S1)
 *   // shrimp-lint: order-insensitive(<reason>) alias for allow(D3)
 *
 * A standalone directive comment applies to the next line; a trailing
 * comment applies to its own line. A directive with a missing reason
 * or an unknown rule id is itself a finding (rule LINT), so
 * suppressions cannot rot silently.
 *
 * Baseline ratchet: --baseline=FILE names a committed JSON file of
 * grandfathered findings ({file, rule, count, reason}). Findings
 * covered by the baseline are reported as "baselined" and do not
 * fail; anything beyond the count fails; an entry whose file/rule has
 * FEWER findings than recorded is reported stale and fails, so the
 * baseline can only shrink.
 *
 * Exit status: 0 clean, 1 findings or stale baseline, 2 usage/IO.
 */

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "../tests/support/mini_json.hh"

namespace fs = std::filesystem;

namespace
{

// --------------------------------------------------------------- rules

struct RuleInfo
{
    const char *id;
    const char *summary;
    const char *hint;
};

const RuleInfo kRules[] = {
    {"D1", "wall-clock read in deterministic code",
     "route timing through sim/profiler or annotate: "
     "// shrimp-lint: allow(D1) <reason>"},
    {"D2", "unseeded randomness",
     "draw from sim::Random (SplitMix64) seeded by the run config"},
    {"D3", "iteration over an unordered container in digest-affecting "
           "code",
     "iterate a sorted copy / ordered container, or annotate the "
     "loop: // shrimp-lint: order-insensitive(<reason>)"},
    {"D4", "pointer identity feeding hashing or ordering",
     "key on a stable id (node, seq, tick) instead of an address"},
    {"S1", "mutable static/global state in the sharded core",
     "move it into per-shard state or annotate: "
     "// shrimp-lint: shard-safe(<reason>)"},
    {"S2", "event label is not a static string",
     "EventQueue stores the label pointer; pass a string literal or "
     "static const char*"},
    {"LINT", "malformed shrimp-lint directive",
     "write // shrimp-lint: allow(<RULE>) <reason> with a known rule "
     "id and a non-empty reason"},
};

bool
knownRule(const std::string &id)
{
    for (const auto &r : kRules)
        if (id == r.id)
            return true;
    return false;
}

const RuleInfo &
ruleInfo(const std::string &id)
{
    for (const auto &r : kRules)
        if (id == r.id)
            return r;
    return kRules[sizeof(kRules) / sizeof(kRules[0]) - 1];
}

struct Finding
{
    std::string file;
    int line = 0;
    std::string rule;
    std::string message;
};

// --------------------------------------------------------------- lexer

struct Tok
{
    enum Kind { Ident, Num, Str, CharLit, Punct } kind = Punct;
    std::string text;
    int line = 0;
};

/** One parsed `// shrimp-lint:` directive. */
struct Directive
{
    int line = 0;          ///< line the comment appears on
    bool standalone = false; ///< comment was the only thing on its line
    std::set<std::string> rules; ///< suppressed rule ids
    std::string reason;
    bool malformed = false;
    std::string error;
};

struct LexedFile
{
    std::vector<Tok> toks;
    std::vector<Directive> directives;
};

bool
identChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/**
 * Parse the text of one `//` comment for a shrimp-lint directive.
 * Only line comments whose content *starts* with `shrimp-lint:` are
 * directives; prose that merely mentions the marker (doc blocks,
 * examples) is ignored.
 */
void
parseDirective(const std::string &comment, int line, bool standalone,
               std::vector<Directive> &out)
{
    std::size_t pos = 0;
    while (pos < comment.size()
           && (comment[pos] == '/' || comment[pos] == ' '
               || comment[pos] == '\t'))
        ++pos;
    if (comment.compare(pos, 12, "shrimp-lint:") != 0)
        return;
    Directive d;
    d.line = line;
    d.standalone = standalone;
    std::string rest = comment.substr(pos + 12);
    // trim leading whitespace
    rest.erase(0, rest.find_first_not_of(" \t"));

    auto fail = [&](const std::string &why) {
        d.malformed = true;
        d.error = why;
        out.push_back(d);
    };

    std::string verb;
    std::size_t i = 0;
    while (i < rest.size() && (identChar(rest[i]) || rest[i] == '-'))
        verb += rest[i++];
    if (i >= rest.size() || rest[i] != '(')
        return fail("expected allow(...), shard-safe(...) or "
                    "order-insensitive(...)");
    auto close = rest.find(')', i);
    if (close == std::string::npos)
        return fail("unterminated '('");
    std::string inner = rest.substr(i + 1, close - i - 1);
    std::string after = rest.substr(close + 1);
    after.erase(0, after.find_first_not_of(" \t"));
    while (!after.empty()
           && std::isspace(static_cast<unsigned char>(after.back())))
        after.pop_back();

    if (verb == "allow") {
        std::stringstream ss(inner);
        std::string id;
        while (std::getline(ss, id, ',')) {
            id.erase(0, id.find_first_not_of(" \t"));
            while (!id.empty() && std::isspace(
                       static_cast<unsigned char>(id.back())))
                id.pop_back();
            if (!knownRule(id) || id == "LINT")
                return fail("unknown rule id '" + id + "'");
            d.rules.insert(id);
        }
        if (d.rules.empty())
            return fail("allow() names no rule");
        if (after.empty())
            return fail("allow(" + inner + ") has no reason");
        d.reason = after;
    } else if (verb == "shard-safe") {
        if (inner.empty())
            return fail("shard-safe() has no reason");
        d.rules.insert("S1");
        d.reason = inner;
    } else if (verb == "order-insensitive") {
        if (inner.empty())
            return fail("order-insensitive() has no reason");
        d.rules.insert("D3");
        d.reason = inner;
    } else {
        return fail("unknown directive '" + verb + "'");
    }
    out.push_back(d);
}

/**
 * Lex C++ source into tokens, stripping comments and preprocessor
 * lines but harvesting shrimp-lint directives from comments.
 * `::` is lexed as a single punct token so rule patterns can tell
 * `std::time` from `obj.time`.
 */
LexedFile
lex(const std::string &src)
{
    LexedFile out;
    int line = 1;
    std::size_t i = 0;
    const std::size_t n = src.size();
    int toksOnLine = 0;

    auto newline = [&]() {
        ++line;
        toksOnLine = 0;
    };

    while (i < n) {
        char c = src[i];
        if (c == '\n') {
            newline();
            ++i;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
            continue;
        }
        // Preprocessor line (only when '#' starts the line's content).
        if (c == '#' && toksOnLine == 0) {
            while (i < n) {
                if (src[i] == '\\' && i + 1 < n && src[i + 1] == '\n') {
                    newline();
                    i += 2;
                    continue;
                }
                if (src[i] == '\n')
                    break;
                ++i;
            }
            continue;
        }
        // Line comment.
        if (c == '/' && i + 1 < n && src[i + 1] == '/') {
            std::size_t end = src.find('\n', i);
            if (end == std::string::npos)
                end = n;
            parseDirective(src.substr(i, end - i), line,
                           toksOnLine == 0, out.directives);
            i = end;
            continue;
        }
        // Block comment (never a directive carrier: doc blocks quote
        // the annotation syntax as prose).
        if (c == '/' && i + 1 < n && src[i + 1] == '*') {
            i += 2;
            while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) {
                if (src[i] == '\n')
                    newline();
                ++i;
            }
            i = (i + 1 < n) ? i + 2 : n;
            continue;
        }
        // Raw string literal.
        if (c == 'R' && i + 1 < n && src[i + 1] == '"') {
            std::size_t p = i + 2;
            std::string delim;
            while (p < n && src[p] != '(')
                delim += src[p++];
            std::string closer = ")" + delim + "\"";
            std::size_t end = src.find(closer, p);
            if (end == std::string::npos)
                end = n;
            else
                end += closer.size();
            for (std::size_t k = i; k < end && k < n; ++k)
                if (src[k] == '\n')
                    newline();
            out.toks.push_back({Tok::Str, "<raw>", line});
            ++toksOnLine;
            i = end;
            continue;
        }
        // String / char literal.
        if (c == '"' || c == '\'') {
            char quote = c;
            std::size_t start = i++;
            while (i < n && src[i] != quote) {
                if (src[i] == '\\')
                    ++i;
                if (i < n && src[i] == '\n')
                    newline();
                ++i;
            }
            ++i;
            out.toks.push_back({quote == '"' ? Tok::Str : Tok::CharLit,
                                src.substr(start, i - start), line});
            ++toksOnLine;
            continue;
        }
        // Identifier / keyword.
        if (identChar(c) && !std::isdigit(static_cast<unsigned char>(c))) {
            std::size_t start = i;
            while (i < n && identChar(src[i]))
                ++i;
            out.toks.push_back(
                {Tok::Ident, src.substr(start, i - start), line});
            ++toksOnLine;
            continue;
        }
        // Number.
        if (std::isdigit(static_cast<unsigned char>(c))) {
            std::size_t start = i;
            while (i < n
                   && (identChar(src[i]) || src[i] == '.'
                       || ((src[i] == '+' || src[i] == '-') && i > start
                           && (src[i - 1] == 'e' || src[i - 1] == 'E'))))
                ++i;
            out.toks.push_back(
                {Tok::Num, src.substr(start, i - start), line});
            ++toksOnLine;
            continue;
        }
        // '::' as one token; everything else single-char punct.
        if (c == ':' && i + 1 < n && src[i + 1] == ':') {
            out.toks.push_back({Tok::Punct, "::", line});
            ++toksOnLine;
            i += 2;
            continue;
        }
        out.toks.push_back({Tok::Punct, std::string(1, c), line});
        ++toksOnLine;
        ++i;
    }
    return out;
}

// ------------------------------------------------------- file scanning

struct Options
{
    fs::path root = ".";
    std::vector<std::string> paths;
    std::vector<std::string> digestDirs = {"src/sim", "src/shrimp",
                                           "src/workload", "src/dma"};
    std::vector<std::string> stateDirs = {"src/sim", "src/shrimp"};
    std::vector<std::string> wallclockAllow = {"src/sim/profiler",
                                               "src/sim/trace_sink",
                                               "bench/bench_common"};
    std::string baselinePath;
    std::string writeBaselinePath;
    bool json = false;
};

bool
pathUnder(const std::string &rel, const std::vector<std::string> &dirs)
{
    for (const auto &d : dirs) {
        if (d == "." || rel == d)
            return true;
        if (rel.size() > d.size() && rel.compare(0, d.size(), d) == 0
            && (rel[d.size()] == '/'
                || rel[d.size() - 1] == '/')) // dir given with slash
            return true;
        // Prefix match without requiring a trailing '/': lets the
        // allowlist name "src/sim/profiler" and cover profiler.cc/.hh.
        if (rel.compare(0, d.size(), d) == 0)
            return true;
    }
    return false;
}

struct SourceFile
{
    std::string rel;  ///< root-relative path, '/'-separated
    LexedFile lexed;
    bool digestDir = false;
    bool stateDir = false;
    bool wallclockAllowed = false;
};

/** Directive lookup: is (rule, line) suppressed in this file? */
class Suppressions
{
  public:
    explicit Suppressions(const std::vector<Directive> &dirs)
    {
        for (const auto &d : dirs) {
            if (d.malformed)
                continue;
            int target = d.standalone ? d.line + 1 : d.line;
            for (const auto &r : d.rules)
                covered_[{r, target}] = true;
        }
    }

    bool
    covers(const std::string &rule, int line) const
    {
        return covered_.count({rule, line}) > 0;
    }

  private:
    std::map<std::pair<std::string, int>, bool> covered_;
};

// ------------------------------------------------------- rule checkers

bool
isIdent(const std::vector<Tok> &t, std::size_t i, const char *s)
{
    return i < t.size() && t[i].kind == Tok::Ident && t[i].text == s;
}

bool
isPunct(const std::vector<Tok> &t, std::size_t i, const char *s)
{
    return i < t.size() && t[i].kind == Tok::Punct && t[i].text == s;
}

/** Index just past a balanced bracket run starting at t[i] == open. */
std::size_t
skipBalanced(const std::vector<Tok> &t, std::size_t i,
             const char *open, const char *close)
{
    int depth = 0;
    for (; i < t.size(); ++i) {
        if (t[i].kind == Tok::Punct && t[i].text == open)
            ++depth;
        else if (t[i].kind == Tok::Punct && t[i].text == close)
            if (--depth == 0)
                return i + 1;
    }
    return t.size();
}

/** Index just past a balanced <...> starting at t[i] == "<".
 *  Tolerates comparison '<' by bailing at ';' or '{'. */
std::size_t
skipAngles(const std::vector<Tok> &t, std::size_t i)
{
    int depth = 0;
    for (; i < t.size(); ++i) {
        if (t[i].kind != Tok::Punct)
            continue;
        if (t[i].text == "<")
            ++depth;
        else if (t[i].text == ">") {
            if (--depth == 0)
                return i + 1;
        } else if (t[i].text == ";" || t[i].text == "{") {
            return i; // not a template argument list after all
        }
    }
    return t.size();
}

void
checkWallClock(const SourceFile &f, const Suppressions &sup,
               std::vector<Finding> &out)
{
    if (f.wallclockAllowed)
        return;
    static const std::set<std::string> kAlways = {
        "steady_clock",  "system_clock", "high_resolution_clock",
        "gettimeofday",  "clock_gettime", "timespec_get",
        "ftime",         "localtime",     "gmtime",
        "mktime",
    };
    // `time` / `clock` only as a free call: `time(` or `std::time(`,
    // never `obj.time(...)` or a declaration `Tick time;`.
    const auto &t = f.lexed.toks;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != Tok::Ident)
            continue;
        bool hit = false;
        std::string what = t[i].text;
        if (kAlways.count(t[i].text)) {
            hit = true;
        } else if (t[i].text == "time" || t[i].text == "clock") {
            bool call = isPunct(t, i + 1, "(");
            bool member = i > 0
                          && (isPunct(t, i - 1, ".")
                              || isPunct(t, i - 1, ">")); // `->`
            if (call && !member) {
                // Exclude declarations `Tick time(Tick)`: an
                // identifier directly in front reads as a return
                // type — unless it is a statement keyword.
                bool declish =
                    i > 0 && t[i - 1].kind == Tok::Ident
                    && t[i - 1].text != "return"
                    && t[i - 1].text != "co_return"
                    && t[i - 1].text != "co_await"
                    && t[i - 1].text != "case"
                    && t[i - 1].text != "else";
                hit = !declish;
                what = t[i].text + "()";
            }
        }
        if (!hit || sup.covers("D1", t[i].line))
            continue;
        out.push_back({f.rel, t[i].line, "D1",
                       "wall-clock read (" + what
                           + ") in deterministic code"});
    }
}

void
checkRandomness(const SourceFile &f, const Suppressions &sup,
                std::vector<Finding> &out)
{
    const auto &t = f.lexed.toks;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != Tok::Ident)
            continue;
        const std::string &id = t[i].text;
        bool memberCall =
            i > 0 && (isPunct(t, i - 1, ".") || isPunct(t, i - 1, ">"));
        if ((id == "rand" || id == "srand") && isPunct(t, i + 1, "(")
            && !memberCall) {
            if (!sup.covers("D2", t[i].line))
                out.push_back({f.rel, t[i].line, "D2",
                               id + "() draws from global, "
                                    "non-reproducible state"});
            continue;
        }
        if (id == "random_device") {
            if (!sup.covers("D2", t[i].line))
                out.push_back({f.rel, t[i].line, "D2",
                               "std::random_device is nondeterministic "
                               "by design"});
            continue;
        }
        if (id == "mt19937" || id == "mt19937_64"
            || id == "default_random_engine" || id == "minstd_rand") {
            // Engine type: find what it is constructed from. A seed
            // is evidenced by an argument token naming *seed*,
            // SplitMix64, or sim::Random. A bare type mention
            // (parameter, reference, template argument) is fine.
            std::size_t j = i + 1;
            if (isPunct(t, j, "::")) // mt19937::result_type etc.
                continue;
            // optional declarator name
            while (j < t.size()
                   && (isPunct(t, j, "&") || isPunct(t, j, "*")))
                ++j;
            if (j < t.size() && t[j].kind == Tok::Ident)
                ++j;
            bool finding = false;
            if (isPunct(t, j, ";")) {
                finding = true; // default-constructed
            } else if (isPunct(t, j, "(") || isPunct(t, j, "{")
                       || isPunct(t, j, "=")) {
                const char *open = t[j].text == "{" ? "{" : "(";
                const char *close = t[j].text == "{" ? "}" : ")";
                std::size_t end;
                if (t[j].text == "=") {
                    end = j + 1;
                    while (end < t.size() && !isPunct(t, end, ";"))
                        ++end;
                } else {
                    end = skipBalanced(t, j, open, close);
                }
                bool seeded = false;
                for (std::size_t k = j; k < end; ++k) {
                    if (t[k].kind != Tok::Ident)
                        continue;
                    std::string low = t[k].text;
                    std::transform(low.begin(), low.end(), low.begin(),
                                   [](unsigned char ch) {
                                       return std::tolower(ch);
                                   });
                    if (low.find("seed") != std::string::npos
                        || t[k].text == "SplitMix64"
                        || t[k].text == "Random") {
                        seeded = true;
                        break;
                    }
                }
                finding = !seeded;
            }
            if (finding && !sup.covers("D2", t[i].line))
                out.push_back({f.rel, t[i].line, "D2",
                               id + " not fed from a SplitMix64/config "
                                    "seed"});
        }
    }
}

const std::set<std::string> kUnorderedTypes = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

/**
 * Pass A of D3: names of variables/members declared with an
 * unordered container type (or an alias of one), collected across the
 * whole scanned tree so a loop in span.cc sees a member declared in
 * span.hh.
 */
void
collectUnorderedNames(const std::vector<SourceFile> &files,
                      std::set<std::string> &names)
{
    std::set<std::string> aliases; // using X = std::unordered_map<...>
    for (const auto &f : files) {
        const auto &t = f.lexed.toks;
        for (std::size_t i = 0; i < t.size(); ++i) {
            if (t[i].kind != Tok::Ident
                || !kUnorderedTypes.count(t[i].text))
                continue;
            // `using Alias = ... unordered_map<...>` — look backwards
            // for the alias introduction on this statement.
            for (std::size_t b = i; b > 0; --b) {
                if (isPunct(t, b, ";") || isPunct(t, b, "{")
                    || isPunct(t, b, "}"))
                    break;
                if (isIdent(t, b, "using") && b + 1 < t.size()
                    && t[b + 1].kind == Tok::Ident) {
                    aliases.insert(t[b + 1].text);
                    break;
                }
            }
            std::size_t j = i + 1;
            if (isPunct(t, j, "<"))
                j = skipAngles(t, j);
            while (j < t.size()
                   && (isPunct(t, j, "&") || isPunct(t, j, "*")
                       || isIdent(t, j, "const")))
                ++j;
            if (j < t.size() && t[j].kind == Tok::Ident
                && (isPunct(t, j + 1, ";") || isPunct(t, j + 1, "=")
                    || isPunct(t, j + 1, "{") || isPunct(t, j + 1, "(")))
                names.insert(t[j].text);
        }
    }
    // Declarations through an alias.
    if (aliases.empty())
        return;
    for (const auto &f : files) {
        const auto &t = f.lexed.toks;
        for (std::size_t i = 0; i + 1 < t.size(); ++i) {
            if (t[i].kind != Tok::Ident || !aliases.count(t[i].text))
                continue;
            std::size_t j = i + 1;
            while (j < t.size()
                   && (isPunct(t, j, "&") || isPunct(t, j, "*")))
                ++j;
            if (j < t.size() && t[j].kind == Tok::Ident
                && (isPunct(t, j + 1, ";") || isPunct(t, j + 1, "=")
                    || isPunct(t, j + 1, "{")))
                names.insert(t[j].text);
        }
    }
}

void
checkUnorderedIteration(const SourceFile &f, const Suppressions &sup,
                        const std::set<std::string> &unorderedNames,
                        std::vector<Finding> &out)
{
    if (!f.digestDir)
        return;
    const auto &t = f.lexed.toks;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (!isIdent(t, i, "for") || !isPunct(t, i + 1, "("))
            continue;
        std::size_t end = skipBalanced(t, i + 1, "(", ")");
        // Range-for: a ':' at paren depth 1 ('::' is its own token).
        std::size_t colon = 0;
        int depth = 0;
        for (std::size_t k = i + 1; k < end; ++k) {
            if (t[k].kind != Tok::Punct)
                continue;
            if (t[k].text == "(")
                ++depth;
            else if (t[k].text == ")")
                --depth;
            else if (t[k].text == ":" && depth == 1) {
                colon = k;
                break;
            }
        }
        bool hit = false;
        std::string name;
        if (colon) {
            for (std::size_t k = colon + 1; k < end; ++k) {
                if (t[k].kind == Tok::Ident
                    && unorderedNames.count(t[k].text)) {
                    hit = true;
                    name = t[k].text;
                    break;
                }
            }
        } else {
            // Iterator loop: `for (auto it = m.begin(); ...)`.
            bool hasBegin = false, hasName = false;
            for (std::size_t k = i + 2; k < end; ++k) {
                if (t[k].kind != Tok::Ident)
                    continue;
                if (t[k].text == "begin" || t[k].text == "cbegin")
                    hasBegin = true;
                if (unorderedNames.count(t[k].text)) {
                    hasName = true;
                    name = t[k].text;
                }
            }
            hit = hasBegin && hasName;
        }
        if (hit && !sup.covers("D3", t[i].line)) {
            out.push_back({f.rel, t[i].line, "D3",
                           "iteration over unordered container '" + name
                               + "' can reach a digest in hash order"});
        }
    }
}

void
checkPointerOrdering(const SourceFile &f, const Suppressions &sup,
                     std::vector<Finding> &out)
{
    const auto &t = f.lexed.toks;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (isIdent(t, i, "hash") && isPunct(t, i + 1, "<")) {
            std::size_t end = skipAngles(t, i + 1);
            for (std::size_t k = i + 1; k < end; ++k) {
                if (isPunct(t, k, "*")) {
                    if (!sup.covers("D4", t[i].line))
                        out.push_back(
                            {f.rel, t[i].line, "D4",
                             "std::hash over a pointer type: hash "
                             "values differ across runs (ASLR)"});
                    break;
                }
            }
        }
        if (isIdent(t, i, "reinterpret_cast") && isPunct(t, i + 1, "<")) {
            std::size_t end = skipAngles(t, i + 1);
            for (std::size_t k = i + 1; k < end; ++k) {
                if (t[k].kind == Tok::Ident
                    && (t[k].text == "uintptr_t"
                        || t[k].text == "intptr_t")) {
                    if (!sup.covers("D4", t[i].line))
                        out.push_back(
                            {f.rel, t[i].line, "D4",
                             "pointer-to-integer cast: the value is "
                             "an address, unstable across runs"});
                    break;
                }
            }
        }
    }
}

/**
 * S1: heuristic scope tracker. Namespace scope (incl. anonymous
 * namespaces) flags any non-const variable; class scope flags
 * non-const `static` members; function bodies flag non-const
 * `static`/`thread_local` locals. Declarations whose statement
 * carries const/constexpr/constinit anywhere are treated as
 * immutable (so `static const char *` labels pass, by design —
 * see DESIGN.md §13 for the limitation).
 */
void
checkMutableStatics(const SourceFile &f, const Suppressions &sup,
                    std::vector<Finding> &out)
{
    if (!f.stateDir)
        return;
    const auto &t = f.lexed.toks;

    enum Scope { Namespace, Class, Function };
    std::vector<Scope> stack = {Namespace};

    static const std::set<std::string> kSkipStmt = {
        "using",  "typedef", "friend",   "static_assert",
        "extern", "public",  "private",  "protected",
        "return", "if",      "while",    "switch",
        "case",   "goto",    "operator", "concept",
        "requires"};

    auto constish = [&](std::size_t b, std::size_t e) {
        for (std::size_t k = b; k < e; ++k)
            if (isIdent(t, k, "const") || isIdent(t, k, "constexpr")
                || isIdent(t, k, "constinit")
                || isIdent(t, k, "consteval"))
                return true;
        return false;
    };
    auto functionish = [&](std::size_t b, std::size_t e) {
        // A '(' directly after an identifier, with no '=' first,
        // reads as a function declarator: `static Foo &instance();`
        for (std::size_t k = b; k < e; ++k) {
            if (isPunct(t, k, "="))
                return false;
            if (isPunct(t, k, "(") && k > b
                && t[k - 1].kind == Tok::Ident)
                return true;
            if (isIdent(t, k, "operator"))
                return true;
        }
        return false;
    };
    auto staticish = [&](std::size_t b, std::size_t e) {
        for (std::size_t k = b; k < e; ++k)
            if (isIdent(t, k, "static") || isIdent(t, k, "thread_local"))
                return true;
        return false;
    };
    auto hasDeclName = [&](std::size_t b, std::size_t e) {
        // At least two identifiers (type + name) or ident before = / {.
        int idents = 0;
        for (std::size_t k = b; k < e; ++k)
            if (t[k].kind == Tok::Ident && !isIdent(t, k, "inline")
                && !isIdent(t, k, "static")
                && !isIdent(t, k, "thread_local")
                && !isIdent(t, k, "mutable"))
                ++idents;
        return idents >= 2;
    };

    std::size_t i = 0;
    while (i < t.size()) {
        Scope cur = stack.back();
        if (isPunct(t, i, "}")) {
            if (stack.size() > 1)
                stack.pop_back();
            ++i;
            continue;
        }
        if (cur == Function) {
            // Only static-local declarations matter inside bodies.
            if (isPunct(t, i, "{")) {
                stack.push_back(Function);
                ++i;
                continue;
            }
            if ((isIdent(t, i, "static") || isIdent(t, i, "thread_local"))
                && !isIdent(t, i + 1, "const")
                && !isIdent(t, i + 1, "constexpr")) {
                std::size_t e = i;
                while (e < t.size() && !isPunct(t, e, ";")
                       && !isPunct(t, e, "{") && !isPunct(t, e, "}"))
                    ++e;
                if (isPunct(t, e, "{")) // brace init: scan to ';'
                    e = skipBalanced(t, e, "{", "}");
                if (!functionish(i, e) && !constish(i, e)
                    && hasDeclName(i, e)) {
                    if (!sup.covers("S1", t[i].line))
                        out.push_back(
                            {f.rel, t[i].line, "S1",
                             "mutable function-local static shared "
                             "across shard workers"});
                }
                i = e;
                continue;
            }
            ++i;
            continue;
        }

        // Namespace / class scope: parse one statement.
        std::size_t b = i;
        if (isIdent(t, i, "template")) {
            if (isPunct(t, i + 1, "<"))
                i = skipAngles(t, i + 1);
            else
                ++i;
            b = i;
        }
        if (isIdent(t, b, "namespace")) {
            std::size_t e = b;
            while (e < t.size() && !isPunct(t, e, "{")
                   && !isPunct(t, e, ";"))
                ++e;
            if (isPunct(t, e, "{"))
                stack.push_back(Namespace);
            i = e + 1;
            continue;
        }
        bool classish = false;
        {
            std::size_t e = b;
            bool sawParen = false;
            while (e < t.size() && !isPunct(t, e, "{")
                   && !isPunct(t, e, ";") && !isPunct(t, e, "}")
                   && !isPunct(t, e, "=")) {
                if (isPunct(t, e, "("))
                    sawParen = true;
                if ((isIdent(t, e, "class") || isIdent(t, e, "struct")
                     || isIdent(t, e, "union") || isIdent(t, e, "enum"))
                    && !sawParen)
                    classish = true;
                ++e;
            }
            if (classish && isPunct(t, e, "{")) {
                stack.push_back(Class);
                i = e + 1;
                continue;
            }
            if (classish && isPunct(t, e, ";")) {
                i = e + 1; // forward declaration
                continue;
            }
        }
        // Collect statement to ';', treating a '{' as either a
        // function body (push Function) or a brace initializer.
        std::size_t e = b;
        bool isVar = false;
        while (e < t.size()) {
            if (isPunct(t, e, ";"))
                break;
            if (isPunct(t, e, "}")) // enum body tail etc.
                break;
            if (isPunct(t, e, "(")) {
                e = skipBalanced(t, e, "(", ")");
                continue;
            }
            if (isPunct(t, e, "{")) {
                if (functionish(b, e)) {
                    stack.push_back(Function);
                    break;
                }
                e = skipBalanced(t, e, "{", "}");
                isVar = true; // brace-initialized variable
                continue;
            }
            ++e;
        }
        if (e < t.size() && isPunct(t, e, "{")) {
            i = e + 1;
            continue;
        }
        // Statement [b, e) ending at ';' or '}'.
        bool skip = false;
        for (const auto &kw : kSkipStmt)
            if (isIdent(t, b, kw.c_str()))
                skip = true;
        if (!skip && e > b && !functionish(b, e) && !constish(b, e)
            && hasDeclName(b, e)) {
            bool flag = cur == Namespace
                        || (cur == Class && staticish(b, e));
            (void)isVar;
            if (flag && !sup.covers("S1", t[b].line)) {
                out.push_back({f.rel, t[b].line, "S1",
                               cur == Namespace
                                   ? "mutable namespace-scope state "
                                     "reachable from every shard"
                                   : "mutable static data member "
                                     "shared across shard workers"});
            }
        }
        i = (e < t.size() && isPunct(t, e, ";")) ? e + 1 : e;
        if (i < t.size() && isPunct(t, i, "}")) {
            // leave '}' for the top of the loop to pop
        }
    }
}

/** Calls that store an event label: the callee and the label's
 *  argument index. The callback always follows the label. */
struct LabelSink
{
    const char *callee;
    std::size_t labelArg;
};

const LabelSink kLabelSinks[] = {
    {"schedule", 1},        // (when, name, fn, ...)
    {"scheduleIn", 1},      // (delay, name, fn, ...)
    {"scheduleStamped", 2}, // (when, stamp, name, fn, ...)
    {"post", 3},            // (src, dst, when, name, fn, prio)
};

void
checkEventLabels(const SourceFile &f, const Suppressions &sup,
                 std::vector<Finding> &out)
{
    const auto &t = f.lexed.toks;
    for (std::size_t i = 0; i < t.size(); ++i) {
        const LabelSink *sink = nullptr;
        for (const auto &s : kLabelSinks)
            if (isIdent(t, i, s.callee))
                sink = &s;
        if (!sink || !isPunct(t, i + 1, "("))
            continue;
        std::size_t end = skipBalanced(t, i + 1, "(", ")");
        // Split top-level args.
        std::vector<std::pair<std::size_t, std::size_t>> args;
        int depth = 0;
        std::size_t argStart = i + 2;
        for (std::size_t k = i + 1; k < end; ++k) {
            if (t[k].kind != Tok::Punct)
                continue;
            if (t[k].text == "(" || t[k].text == "{"
                || t[k].text == "[")
                ++depth;
            else if (t[k].text == ")" || t[k].text == "}"
                     || t[k].text == "]") {
                if (--depth == 0) {
                    if (k > argStart)
                        args.emplace_back(argStart, k);
                    break;
                }
            } else if (t[k].text == "," && depth == 1) {
                args.emplace_back(argStart, k);
                argStart = k + 1;
            }
        }
        if (args.size() < sink->labelArg + 2)
            continue; // too few arguments for a label and a callback
        auto [lb, le] = args[sink->labelArg];
        bool bad = false;
        std::string why;
        int parenDepth = 0;
        for (std::size_t k = lb; k < le; ++k) {
            if (t[k].kind == Tok::Punct) {
                if (t[k].text == "(")
                    ++parenDepth;
                else if (t[k].text == ")")
                    --parenDepth;
                else if (t[k].text == "+" && parenDepth == 0) {
                    bad = true;
                    why = "label built by string concatenation";
                }
            }
            if (t[k].kind != Tok::Ident)
                continue;
            if (t[k].text == "c_str") {
                bad = true;
                why = "label points into a std::string that may die "
                      "before the event fires";
            } else if (t[k].text == "string" || t[k].text == "to_string"
                       || t[k].text == "format") {
                bad = true;
                why = "label is a temporary string";
            }
        }
        if (bad && !sup.covers("S2", t[lb].line))
            out.push_back({f.rel, t[lb].line, "S2", why});
    }
}

/** Malformed directives are findings themselves. */
void
checkDirectives(const SourceFile &f, std::vector<Finding> &out)
{
    for (const auto &d : f.lexed.directives)
        if (d.malformed)
            out.push_back({f.rel, d.line, "LINT", d.error});
}

// ------------------------------------------------------------ baseline

struct BaselineEntry
{
    std::string file;
    std::string rule;
    int count = 0;
    std::string reason;
};

bool
loadBaseline(const std::string &path, std::vector<BaselineEntry> &out,
             std::string &err)
{
    std::ifstream in(path);
    if (!in) {
        err = "cannot read baseline file: " + path;
        return false;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    minijson::Value root;
    std::string perr;
    if (!minijson::parse(ss.str(), root, &perr)) {
        err = "baseline parse error: " + perr;
        return false;
    }
    const minijson::Value *arr = root.find("findings");
    if (!arr || !arr->isArray()) {
        err = "baseline has no \"findings\" array";
        return false;
    }
    for (const auto &e : arr->array) {
        const minijson::Value *file = e.find("file");
        const minijson::Value *rule = e.find("rule");
        const minijson::Value *count = e.find("count");
        const minijson::Value *reason = e.find("reason");
        if (!file || !file->isString() || !rule || !rule->isString()
            || !count || !count->isNumber() || !reason
            || !reason->isString() || reason->str.empty()) {
            err = "baseline entry needs file, rule, count and a "
                  "non-empty reason";
            return false;
        }
        if (!knownRule(rule->str)) {
            err = "baseline names unknown rule '" + rule->str + "'";
            return false;
        }
        out.push_back({file->str, rule->str,
                       static_cast<int>(count->number), reason->str});
    }
    return true;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c & 0x1f);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

// ----------------------------------------------------------------- cli

void
usage(std::ostream &os)
{
    os << "usage: shrimp_lint [options] [paths...]\n"
          "\n"
          "Scans C++ sources for determinism & shard-safety contract\n"
          "violations. Paths are relative to --root and default to:\n"
          "src tools bench examples\n"
          "\n"
          "  --root=DIR             repo root (default: .)\n"
          "  --json                 machine-readable report on stdout\n"
          "  --baseline=FILE        grandfathered findings (ratchet)\n"
          "  --write-baseline=FILE  dump current findings as baseline\n"
          "  --digest-dir=P         override digest-affecting dirs\n"
          "  --state-dir=P          override S1 shard-state dirs\n"
          "  --wallclock-allow=P    override D1 allowlist\n"
          "  --list-rules           print the rule table and exit\n"
          "\n"
          "exit: 0 clean, 1 findings or stale baseline, 2 usage/IO\n";
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    bool digestOverride = false, stateOverride = false,
         allowOverride = false, listRules = false;

    for (int a = 1; a < argc; ++a) {
        std::string arg = argv[a];
        auto val = [&](const char *pfx) {
            return arg.substr(std::string(pfx).size());
        };
        if (arg == "--json") {
            opt.json = true;
        } else if (arg == "--list-rules") {
            listRules = true;
        } else if (arg.rfind("--root=", 0) == 0) {
            opt.root = val("--root=");
        } else if (arg.rfind("--baseline=", 0) == 0) {
            opt.baselinePath = val("--baseline=");
        } else if (arg.rfind("--write-baseline=", 0) == 0) {
            opt.writeBaselinePath = val("--write-baseline=");
        } else if (arg.rfind("--digest-dir=", 0) == 0) {
            if (!digestOverride)
                opt.digestDirs.clear();
            digestOverride = true;
            opt.digestDirs.push_back(val("--digest-dir="));
        } else if (arg.rfind("--state-dir=", 0) == 0) {
            if (!stateOverride)
                opt.stateDirs.clear();
            stateOverride = true;
            opt.stateDirs.push_back(val("--state-dir="));
        } else if (arg.rfind("--wallclock-allow=", 0) == 0) {
            if (!allowOverride)
                opt.wallclockAllow.clear();
            allowOverride = true;
            opt.wallclockAllow.push_back(val("--wallclock-allow="));
        } else if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            return 0;
        } else if (arg.rfind("--", 0) == 0) {
            std::cerr << "unknown option: " << arg << "\n";
            usage(std::cerr);
            return 2;
        } else {
            opt.paths.push_back(arg);
        }
    }

    if (listRules) {
        for (const auto &r : kRules) {
            std::cout << r.id << "  " << r.summary << "\n      "
                      << r.hint << "\n";
        }
        return 0;
    }

    if (opt.paths.empty())
        opt.paths = {"src", "tools", "bench", "examples"};

    // ------------------------------------------------ collect sources
    std::vector<SourceFile> files;
    std::error_code ec;
    for (const auto &p : opt.paths) {
        fs::path full = opt.root / p;
        std::vector<fs::path> found;
        if (fs::is_regular_file(full, ec)) {
            found.push_back(full);
        } else if (fs::is_directory(full, ec)) {
            for (auto it = fs::recursive_directory_iterator(full, ec);
                 it != fs::recursive_directory_iterator();
                 it.increment(ec)) {
                if (ec)
                    break;
                if (!it->is_regular_file())
                    continue;
                auto ext = it->path().extension().string();
                if (ext == ".cc" || ext == ".hh" || ext == ".cpp"
                    || ext == ".h")
                    found.push_back(it->path());
            }
        } else {
            std::cerr << "shrimp_lint: no such path: " << full.string()
                      << "\n";
            return 2;
        }
        for (auto &fp : found) {
            std::ifstream in(fp);
            if (!in) {
                std::cerr << "shrimp_lint: cannot read " << fp.string()
                          << "\n";
                return 2;
            }
            std::stringstream ss;
            ss << in.rdbuf();
            SourceFile sf;
            sf.rel = fs::relative(fp, opt.root, ec).generic_string();
            if (ec || sf.rel.empty() || sf.rel.rfind("..", 0) == 0)
                sf.rel = fp.generic_string();
            sf.lexed = lex(ss.str());
            sf.digestDir = pathUnder(sf.rel, opt.digestDirs);
            sf.stateDir = pathUnder(sf.rel, opt.stateDirs);
            sf.wallclockAllowed =
                pathUnder(sf.rel, opt.wallclockAllow);
            files.push_back(std::move(sf));
        }
    }
    std::sort(files.begin(), files.end(),
              [](const SourceFile &a, const SourceFile &b) {
                  return a.rel < b.rel;
              });

    // ------------------------------------------------------ run rules
    std::set<std::string> unorderedNames;
    collectUnorderedNames(files, unorderedNames);

    std::vector<Finding> findings;
    for (const auto &f : files) {
        Suppressions sup(f.lexed.directives);
        checkDirectives(f, findings);
        checkWallClock(f, sup, findings);
        checkRandomness(f, sup, findings);
        checkUnorderedIteration(f, sup, unorderedNames, findings);
        checkPointerOrdering(f, sup, findings);
        checkMutableStatics(f, sup, findings);
        checkEventLabels(f, sup, findings);
    }
    std::sort(findings.begin(), findings.end(),
              [](const Finding &a, const Finding &b) {
                  return std::tie(a.file, a.line, a.rule)
                         < std::tie(b.file, b.line, b.rule);
              });

    // --------------------------------------------------- baseline
    std::vector<BaselineEntry> baseline;
    if (!opt.baselinePath.empty()) {
        std::string err;
        if (!loadBaseline(opt.baselinePath, baseline, err)) {
            std::cerr << "shrimp_lint: " << err << "\n";
            return 2;
        }
    }

    std::map<std::pair<std::string, std::string>, int> byFileRule;
    for (const auto &f : findings)
        ++byFileRule[{f.file, f.rule}];

    struct Stale
    {
        BaselineEntry entry;
        int actual;
    };
    std::vector<Stale> stale;
    std::map<std::pair<std::string, std::string>, int> allowance;
    for (const auto &e : baseline) {
        int actual = 0;
        auto it = byFileRule.find({e.file, e.rule});
        if (it != byFileRule.end())
            actual = it->second;
        if (actual < e.count)
            stale.push_back({e, actual});
        allowance[{e.file, e.rule}] += e.count;
    }

    std::vector<Finding> fresh;   // fail the gate
    int baselined = 0;
    for (const auto &f : findings) {
        auto it = allowance.find({f.file, f.rule});
        if (it != allowance.end() && it->second > 0) {
            --it->second;
            ++baselined;
        } else {
            fresh.push_back(f);
        }
    }

    // ---------------------------------------------- write-baseline
    if (!opt.writeBaselinePath.empty()) {
        std::ofstream out(opt.writeBaselinePath);
        if (!out) {
            std::cerr << "shrimp_lint: cannot write "
                      << opt.writeBaselinePath << "\n";
            return 2;
        }
        out << "{\n  \"findings\": [";
        bool first = true;
        for (const auto &[key, count] : byFileRule) {
            out << (first ? "" : ",") << "\n    {\"file\": \""
                << jsonEscape(key.first) << "\", \"rule\": \""
                << key.second << "\", \"count\": " << count
                << ", \"reason\": \"TODO: justify or fix\"}";
            first = false;
        }
        out << "\n  ]\n}\n";
    }

    // -------------------------------------------------------- report
    bool failed = !fresh.empty() || !stale.empty();

    if (opt.json) {
        std::ostream &os = std::cout;
        os << "{\n  \"tool\": \"shrimp_lint\",\n  \"files_scanned\": "
           << files.size() << ",\n  \"findings\": [";
        bool first = true;
        for (const auto &f : fresh) {
            os << (first ? "" : ",")
               << "\n    {\"file\": \"" << jsonEscape(f.file)
               << "\", \"line\": " << f.line << ", \"rule\": \""
               << f.rule << "\", \"severity\": \"error\", "
               << "\"message\": \"" << jsonEscape(f.message)
               << "\", \"hint\": \"" << jsonEscape(ruleInfo(f.rule).hint)
               << "\"}";
            first = false;
        }
        os << "\n  ],\n  \"baselined\": " << baselined
           << ",\n  \"stale_baseline\": [";
        first = true;
        for (const auto &s : stale) {
            os << (first ? "" : ",")
               << "\n    {\"file\": \"" << jsonEscape(s.entry.file)
               << "\", \"rule\": \"" << s.entry.rule
               << "\", \"expected\": " << s.entry.count
               << ", \"actual\": " << s.actual << "}";
            first = false;
        }
        os << "\n  ],\n  \"counts\": {";
        std::map<std::string, int> counts;
        for (const auto &f : fresh)
            ++counts[f.rule];
        first = true;
        for (const auto &[rule, cnt] : counts) {
            os << (first ? "" : ", ") << "\"" << rule << "\": " << cnt;
            first = false;
        }
        os << "},\n  \"clean\": " << (failed ? "false" : "true")
           << "\n}\n";
    } else {
        for (const auto &f : fresh) {
            std::cout << f.file << ":" << f.line << ": [" << f.rule
                      << "] " << f.message << "\n    hint: "
                      << ruleInfo(f.rule).hint << "\n";
        }
        for (const auto &s : stale) {
            std::cout << "stale baseline entry: " << s.entry.file
                      << " [" << s.entry.rule << "] records "
                      << s.entry.count << " finding(s) but "
                      << s.actual
                      << " remain — shrink tools/lint_baseline.json\n";
        }
        std::cout << "shrimp_lint: " << files.size() << " files, "
                  << fresh.size() << " finding(s)";
        if (baselined)
            std::cout << ", " << baselined << " baselined";
        if (!stale.empty())
            std::cout << ", " << stale.size()
                      << " stale baseline entr"
                      << (stale.size() == 1 ? "y" : "ies");
        std::cout << (failed ? " — FAIL" : " — clean") << "\n";
    }

    return failed ? 1 : 0;
}
