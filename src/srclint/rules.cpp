#include "srclint/rules.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <sstream>

#include "srclint/model.hpp"

namespace pasched::srclint {

namespace {

using analysis::Diagnostic;
using analysis::Severity;

[[nodiscard]] bool path_in(const std::vector<std::string>& prefixes,
                           const std::string& path) {
  return std::any_of(prefixes.begin(), prefixes.end(),
                     [&](const std::string& p) {
                       return path.compare(0, p.size(), p) == 0;
                     });
}

[[nodiscard]] bool is(const Token& t, const char* text) {
  return t.text == text;
}

[[nodiscard]] bool contains_ci(const std::string& hay, const std::string& nee) {
  const auto it = std::search(
      hay.begin(), hay.end(), nee.begin(), nee.end(), [](char a, char b) {
        return std::tolower(static_cast<unsigned char>(a)) ==
               std::tolower(static_cast<unsigned char>(b));
      });
  return it != hay.end();
}

/// Index of the "(" matching the ")" at `close`, or npos.
[[nodiscard]] std::size_t match_backward(const std::vector<Token>& t,
                                         std::size_t close) {
  int depth = 0;
  for (std::size_t i = close + 1; i-- > 0;) {
    if (t[i].kind != Tok::Punct) continue;
    if (is(t[i], ")")) ++depth;
    else if (is(t[i], "(") && --depth == 0) return i;
  }
  return t.size();
}

class RuleRun {
 public:
  RuleRun(const SourceFile& f, const RuleConfig& cfg, const RuleSelection& sel,
          RuleStats* stats)
      : f_(f), cfg_(cfg), sel_(sel), stats_(stats) {}

  std::vector<Diagnostic> run() {
    if (sel_.enabled("PSL401")) psl401();
    if (sel_.enabled("PSL402")) psl402();
    if (sel_.enabled("PSL403")) psl403();
    if (sel_.enabled("PSL404")) psl404();
    if (sel_.enabled("PSL405")) psl405();
    if (sel_.enabled("PSL406")) psl406();
    return std::move(out_);
  }

 private:
  void report(const char* rule, int line, std::string message,
              std::string fix) {
    if (f_.suppressed(rule, line)) {
      if (stats_ != nullptr) ++stats_->suppressions_honored;
      return;
    }
    Diagnostic d;
    d.rule = rule;
    d.severity = Severity::Error;
    d.subject = f_.path + ":" + std::to_string(line);
    d.message = std::move(message);
    d.fix_hint = std::move(fix);
    out_.push_back(std::move(d));
  }

  // -- PSL401: the ShardedEngine/EventContext posting seam ------------------

  void psl401() {
    if (path_in(cfg_.seam_allow, f_.path)) return;
    const auto& t = f_.tokens;
    static const std::array<const char*, 9> kMutators = {
        "schedule_at", "schedule_after", "cancel", "run",  "run_until",
        "run_before",  "drain",          "stop",   "step"};
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].pp || t[i].kind != Tok::Identifier) continue;
      // (a) Binding a mutable reference/pointer to a raw engine.
      if (is(t[i], "Engine") && i + 2 < t.size() &&
          (is(t[i + 1], "&") || is(t[i + 1], "*")) &&
          t[i + 2].kind == Tok::Identifier && !is(t[i + 2], "const") &&
          (i + 3 >= t.size() || !is(t[i + 3], "("))) {
        bool is_const = false;
        for (std::size_t back = 1; back <= 3 && back <= i; ++back) {
          if (t[i - back].kind == Tok::Identifier && is(t[i - back], "const"))
            is_const = true;
        }
        if (!is_const) {
          report("PSL401", t[i].line,
                 "mutable sim::Engine reference/pointer bound outside the "
                 "ShardedEngine/EventContext seam (src/sim, tools, tests)",
                 "schedule through this node's sim::EventContext, or cross "
                 "shards through sim::ShardedEngine::post()");
        }
        continue;
      }
      // (b) A mutating engine call through an engine-shaped expression:
      // engine().X(...), engine_of(s).X(...), engine_->X(...), engine.X(...).
      if (i + 1 < t.size() && is(t[i + 1], "(") && i >= 2 &&
          (is(t[i - 1], ".") || is(t[i - 1], "->")) &&
          std::any_of(kMutators.begin(), kMutators.end(),
                      [&](const char* m) { return is(t[i], m); })) {
        std::size_t base = i - 2;
        if (is(t[base], ")")) {
          const std::size_t open = match_backward(t, base);
          if (open == t.size() || open == 0) continue;
          base = open - 1;
        }
        if (t[base].kind == Tok::Identifier &&
            contains_ci(t[base].text, "engine")) {
          report("PSL401", t[i].line,
                 "direct engine mutation `" + t[base].text + "..." +
                     t[i].text +
                     "()` bypasses the ShardedEngine/EventContext posting "
                     "seam",
                 "post through sim::EventContext::schedule_*/cancel or "
                 "sim::ShardedEngine::post() so partitioned execution stays "
                 "sound");
        }
      }
    }
  }

  // -- PSL402: shard-resident ownership annotations -------------------------

  void psl402() {
    if (!path_in(cfg_.shard_resident_scope, f_.path)) return;
    const auto& t = f_.tokens;
    for (const ClassBody& c : find_class_bodies(f_, cfg_.shard_resident)) {
      bool has_owned = false;
      for (std::size_t i = c.body_begin; i < c.body_end; ++i) {
        if (t[i].kind == Tok::Identifier && is(t[i], "Owned")) {
          has_owned = true;
          break;
        }
      }
      if (!has_owned) {
        report("PSL402", c.line,
               "shard-resident type `" + c.name +
                   "` carries no race::Owned ownership tag — non-owner "
                   "mutations of it are invisible to pasched-race",
               "embed a race::Owned member and bind it to the owning shard "
               "domain at construction (DESIGN.md §7.1)");
      }
      for (std::size_t i = c.body_begin; i < c.body_end; ++i) {
        if (t[i].pp || t[i].kind != Tok::Identifier || !is(t[i], "mutable"))
          continue;
        bool guarded = false;
        std::size_t j = i + 1;
        for (; j < c.body_end; ++j) {
          if (t[j].kind == Tok::Punct && is(t[j], "{")) {
            j = match_forward(t, j);
            continue;
          }
          if (t[j].kind == Tok::Punct && is(t[j], ";")) break;
          if (t[j].kind == Tok::Identifier &&
              (is(t[j], "atomic") || is(t[j], "Owned")))
            guarded = true;
        }
        if (!guarded) {
          report("PSL402", t[i].line,
                 "mutable field of shard-resident type `" + c.name +
                     "` is neither atomic nor ownership-tagged — it can be "
                     "written through const access from any worker",
                 "make it std::atomic, guard it behind the type's "
                 "race::Owned domain, or justify with srclint-ok(PSL402)");
        }
      }
    }
  }

  // -- PSL403: the PASCHED_HOT contract -------------------------------------

  void psl403() {
    const auto& t = f_.tokens;
    const auto hots = find_marked_functions(f_, kHotMarker);
    if (stats_ != nullptr) stats_->hot_functions += hots.size();
    static const std::array<const char*, 6> kAlloc = {
        "malloc", "calloc", "realloc", "aligned_alloc", "make_unique",
        "make_shared"};
    static const std::array<const char*, 8> kLockTypes = {
        "mutex",       "timed_mutex", "recursive_mutex", "shared_mutex",
        "scoped_lock", "lock_guard",  "unique_lock",     "shared_lock"};
    static const std::array<const char*, 10> kBlocking = {
        "sleep",      "sleep_for",  "sleep_until",     "usleep",
        "nanosleep",  "wait",       "wait_for",        "wait_until",
        "arrive_and_wait", "arrive_and_drop"};
    static const std::array<const char*, 8> kIo = {
        "printf", "fprintf", "puts", "fputs", "fwrite", "cout", "cerr",
        "clog"};
    for (const HotFunction& fn : hots) {
      for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
        if (t[i].pp || t[i].kind != Tok::Identifier) continue;
        const std::string& x = t[i].text;
        const bool called =
            i + 1 < t.size() && t[i + 1].kind == Tok::Punct &&
            is(t[i + 1], "(");
        auto bad = [&](const char* what, const char* fix) {
          report("PSL403", t[i].line,
                 "PASCHED_HOT function `" + fn.name + "` " + what + " (`" +
                     x + "`) on the event hot path",
                 fix);
        };
        if (is(t[i], "new")) {
          if (!called)  // `new (buf) T` is placement — no heap traffic
            bad("allocates from the heap",
                "preallocate at setup time or reuse a per-shard buffer; see "
                "ROADMAP open item 2 (arena/slab events)");
        } else if (called && std::any_of(kAlloc.begin(), kAlloc.end(),
                                         [&](const char* a) {
                                           return x == a;
                                         })) {
          bad("allocates from the heap",
              "preallocate at setup time or reuse a per-shard buffer");
        } else if (std::any_of(kLockTypes.begin(), kLockTypes.end(),
                               [&](const char* l) { return x == l; })) {
          bad("takes or declares a lock",
              "move locking to the per-window (barrier) boundary and pass "
              "the drained data into the hot function");
        } else if (called && (x == "lock" || x == "try_lock") && i >= 1 &&
                   (is(t[i - 1], ".") || is(t[i - 1], "->"))) {
          bad("takes a lock",
              "move locking to the per-window (barrier) boundary");
        } else if (is(t[i], "throw")) {
          bad("throws",
              "report through a PASCHED_CHECK (vanishes in release) or "
              "return an error the caller handles off the hot path");
        } else if (called && std::any_of(kBlocking.begin(), kBlocking.end(),
                                         [&](const char* b) {
                                           return x == b;
                                         })) {
          bad("blocks",
              "hot functions must run to completion; synchronize at the "
              "window barrier instead");
        } else if (std::any_of(kIo.begin(), kIo.end(),
                               [&](const char* o) { return x == o; })) {
          bad("performs I/O",
              "buffer diagnostics and flush them outside the hot path");
        }
      }
    }
  }

  // -- PSL404: vanishing-check argument side effects ------------------------

  void psl404() {
    const auto& t = f_.tokens;
    const auto calls = find_macro_calls(f_, cfg_.vanishing_macros);
    if (stats_ != nullptr) stats_->macro_calls += calls.size();
    static const std::array<const char*, 11> kMutOps = {
        "++", "--", "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^="};
    for (const MacroCall& mc : calls) {
      for (std::size_t i = mc.args_begin; i < mc.args_end; ++i) {
        if (t[i].kind != Tok::Punct) continue;
        const bool mut =
            std::any_of(kMutOps.begin(), kMutOps.end(),
                        [&](const char* op) { return is(t[i], op); });
        if (!mut) continue;
        if (is(t[i], "=") && i > mc.args_begin && is(t[i - 1], "["))
          continue;  // lambda capture-default [=]
        report("PSL404", t[i].line,
               "side effect (`" + t[i].text + "`) inside " + mc.name +
                   " arguments — the expression vanishes under "
                   "-DPASCHED_VALIDATE=OFF, so validated and release builds "
                   "diverge",
               "hoist the mutation out of the check; the macro argument "
               "must be a pure observation");
      }
    }
  }

  // -- PSL405: nondeterminism sources in the deterministic core -------------

  void psl405() {
    if (!path_in(cfg_.determinism_scope, f_.path)) return;
    const auto& t = f_.tokens;
    static const std::array<const char*, 7> kBannedAny = {
        "srand",        "random_device", "system_clock",
        "steady_clock", "high_resolution_clock", "gettimeofday",
        "clock_gettime"};
    // Declared unordered containers (for iteration detection).
    std::vector<std::string> unordered_names;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].pp || t[i].kind != Tok::Identifier) continue;
      const std::string& x = t[i].text;
      if (std::any_of(kBannedAny.begin(), kBannedAny.end(),
                      [&](const char* b) { return x == b; })) {
        report("PSL405", t[i].line,
               "nondeterminism source `" + x +
                   "` in the deterministic core — traces and digests must "
                   "be a pure function of the seed",
               "derive randomness from sim::Rng (seeded) and time from the "
               "engine clock");
        continue;
      }
      if (x == "rand" && i >= 1 && is(t[i - 1], "::") && i + 1 < t.size() &&
          is(t[i + 1], "(")) {
        report("PSL405", t[i].line,
               "libc rand() in the deterministic core",
               "derive randomness from sim::Rng (seeded)");
        continue;
      }
      if (x == "time" && i >= 1 && is(t[i - 1], "::") && i + 1 < t.size() &&
          is(t[i + 1], "(")) {
        report("PSL405", t[i].line,
               "wall-clock time() in the deterministic core",
               "read the engine clock (EventContext::now()) instead");
        continue;
      }
      if (x == "unordered_map" || x == "unordered_set" ||
          x == "unordered_multimap" || x == "unordered_multiset") {
        // Skip template arguments, then take the declared name.
        std::size_t j = i + 1;
        if (j < t.size() && is(t[j], "<")) {
          int angle = 0;
          for (; j < t.size(); ++j) {
            if (t[j].kind != Tok::Punct) continue;
            if (is(t[j], "<")) ++angle;
            else if (is(t[j], ">")) {
              if (--angle == 0) { ++j; break; }
            } else if (is(t[j], ">>")) {
              angle -= 2;
              if (angle <= 0) { ++j; break; }
            }
          }
        }
        while (j < t.size() && t[j].kind == Tok::Punct &&
               (is(t[j], "&") || is(t[j], "*") || is(t[j], "...")))
          ++j;
        if (j < t.size() && t[j].kind == Tok::Identifier)
          unordered_names.push_back(t[j].text);
      }
    }
    // Range-for over a declared unordered container: iteration order feeds
    // whatever the loop body writes.
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      if (t[i].pp || !is(t[i], "for") || !is(t[i + 1], "(")) continue;
      const std::size_t close = match_forward(t, i + 1);
      if (close >= t.size()) continue;
      int paren = 0;
      std::size_t colon = t.size();
      for (std::size_t j = i + 2; j < close; ++j) {
        if (t[j].kind != Tok::Punct) continue;
        if (is(t[j], "(")) ++paren;
        else if (is(t[j], ")")) --paren;
        else if (paren == 0 && is(t[j], ":")) { colon = j; break; }
      }
      if (colon == t.size()) continue;
      bool has_call = false;
      std::string last_ident;
      for (std::size_t j = colon + 1; j < close; ++j) {
        if (t[j].kind == Tok::Punct && is(t[j], "(")) has_call = true;
        if (t[j].kind == Tok::Identifier) last_ident = t[j].text;
      }
      if (!has_call && !last_ident.empty() &&
          std::find(unordered_names.begin(), unordered_names.end(),
                    last_ident) != unordered_names.end()) {
        report("PSL405", t[i].line,
               "iteration over unordered container `" + last_ident +
                   "` — bucket order is implementation-defined and leaks "
                   "into everything the loop writes",
               "iterate a sorted view, or key the loop on a deterministic "
               "index (node id, rank, shard)");
      }
    }
  }

  // -- PSL406: thread creation outside the worker pool ----------------------

  void psl406() {
    if (path_in(cfg_.thread_allow, f_.path)) return;
    const auto& t = f_.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].pp || t[i].kind != Tok::Identifier) continue;
      if ((is(t[i], "thread") || is(t[i], "jthread")) && i >= 2 &&
          is(t[i - 1], "::") && is(t[i - 2], "std") &&
          (i + 1 >= t.size() || !is(t[i + 1], "::"))) {
        report("PSL406", t[i].line,
               "std::" + t[i].text +
                   " outside the ShardedEngine worker pool — ad-hoc threads "
                   "bypass the domain scoping and barrier protocol",
               "execute on the shard's EventContext; only "
               "sim::ShardedEngine::run_until may own workers");
        continue;
      }
      if (is(t[i], "pthread_create")) {
        report("PSL406", t[i].line,
               "raw pthread_create outside the ShardedEngine worker pool",
               "use the shard worker pool");
        continue;
      }
      if (is(t[i], "detach") && i >= 1 &&
          (is(t[i - 1], ".") || is(t[i - 1], "->")) && i + 2 < t.size() &&
          is(t[i + 1], "(") && is(t[i + 2], ")")) {
        report("PSL406", t[i].line,
               "detached thread — nothing joins it, so it outlives the "
               "barrier protocol and the run's determinism scope",
               "keep threads joined (jthread) inside the shard worker pool");
      }
    }
  }

  const SourceFile& f_;
  const RuleConfig& cfg_;
  const RuleSelection& sel_;
  RuleStats* stats_;
  std::vector<Diagnostic> out_;
};

}  // namespace

bool RuleSelection::enabled(std::string_view id) const {
  return only.empty() || std::find(only.begin(), only.end(), id) != only.end();
}

std::vector<Diagnostic> run_rules(const SourceFile& file,
                                  const RuleConfig& cfg,
                                  const RuleSelection& sel, RuleStats* stats) {
  return RuleRun(file, cfg, sel, stats).run();
}

}  // namespace pasched::srclint
