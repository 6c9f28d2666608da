#include "contend/rules.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "srclint/model.hpp"

namespace pasched::contend {

using srclint::SourceFile;
using srclint::Tok;
using srclint::Token;

namespace {

[[nodiscard]] bool is_scalarish(const std::string& x) noexcept {
  static const char* const kScalar[] = {
      "bool",     "char",     "short",    "int",      "long",
      "unsigned", "signed",   "float",    "double",   "size_t",
      "int8_t",   "int16_t",  "int32_t",  "int64_t",  "uint8_t",
      "uint16_t", "uint32_t", "uint64_t", "uintptr_t", "intptr_t",
      "Time",     "Duration", "atomic"};
  return std::any_of(std::begin(kScalar), std::end(kScalar),
                     [&](const char* k) { return x == k; });
}

[[nodiscard]] bool is_padding_wrapper(const std::string& x) noexcept {
  return x == "CacheAligned" || x == "unique_ptr" || x == "shared_ptr" ||
         x == "alignas";
}

/// A member-declaration statement: a top-level token slice of a class body
/// ending at ';' (brace-init fields included; member-function bodies and
/// nested classes excluded).
struct MemberStmt {
  std::vector<std::size_t> toks;  // token indices
  int line = 0;
};

[[nodiscard]] std::vector<MemberStmt> member_statements(
    const SourceFile& f, const srclint::ClassBody& cb) {
  std::vector<MemberStmt> out;
  const auto& t = f.tokens;
  MemberStmt cur;
  for (std::size_t i = cb.body_begin; i < cb.body_end; ++i) {
    if (t[i].pp) continue;
    if (t[i].kind == Tok::Punct &&
        (t[i].text == "(" || t[i].text == "[" || t[i].text == "{")) {
      const std::size_t close = srclint::match_forward(f.tokens, i);
      if (close >= cb.body_end) break;
      const bool nested_type = std::any_of(
          cur.toks.begin(), cur.toks.end(), [&](std::size_t k) {
            return t[k].kind == Tok::Identifier &&
                   (t[k].text == "struct" || t[k].text == "class" ||
                    t[k].text == "union" || t[k].text == "enum");
          });
      if (t[i].text == "{" &&
          (nested_type ||
           !(close + 1 < cb.body_end && t[close + 1].text == ";"))) {
        // Function body or nested type definition (`struct S {...};` ends
        // in ';' like a brace-init field, but is not one): not a field.
        cur = MemberStmt{};
        i = close;
        if (nested_type && close + 1 < cb.body_end &&
            t[close + 1].text == ";")
          ++i;  // consume the type's ';' too
        continue;
      }
      for (std::size_t k = i; k <= close; ++k) cur.toks.push_back(k);
      i = close;
      continue;
    }
    if (t[i].kind == Tok::Punct && t[i].text == ";") {
      if (!cur.toks.empty()) {
        cur.line = t[cur.toks.front()].line;
        out.push_back(std::move(cur));
      }
      cur = MemberStmt{};
      continue;
    }
    cur.toks.push_back(i);
  }
  return out;
}

/// The declared name of a field statement: the last identifier directly
/// followed by ';' (end of slice), '=', '{' or '['.
[[nodiscard]] std::string field_name(const SourceFile& f,
                                     const MemberStmt& st) {
  const auto& t = f.tokens;
  std::string name;
  for (std::size_t k = 0; k < st.toks.size(); ++k) {
    const Token& tk = t[st.toks[k]];
    if (tk.kind != Tok::Identifier) continue;
    if (k + 1 == st.toks.size()) {
      name = tk.text;
      continue;
    }
    const Token& nx = t[st.toks[k + 1]];
    if (nx.kind == Tok::Punct &&
        (nx.text == "=" || nx.text == "{" || nx.text == "["))
      name = tk.text;
  }
  return name;
}

/// True when the statement looks like a function declaration: a top-level
/// '(' before any '='.
[[nodiscard]] bool looks_like_function_decl(const SourceFile& f,
                                            const MemberStmt& st) {
  const auto& t = f.tokens;
  for (const std::size_t k : st.toks) {
    if (t[k].kind != Tok::Punct) continue;
    if (t[k].text == "=") return false;
    if (t[k].text == "(") return true;
  }
  return false;
}

[[nodiscard]] bool stmt_has(const SourceFile& f, const MemberStmt& st,
                            const char* ident) {
  const auto& t = f.tokens;
  return std::any_of(st.toks.begin(), st.toks.end(), [&](std::size_t k) {
    return t[k].kind == Tok::Identifier && t[k].text == ident;
  });
}

void emit(std::vector<analysis::Diagnostic>& findings, FileRuleStats& stats,
          const SourceFile& f, const srclint::RuleSelection& sel,
          const std::string& rule, analysis::Severity sev, int line,
          std::string message, std::string fix_hint) {
  if (!sel.enabled(rule)) return;
  if (f.suppressed(rule, line)) {
    ++stats.suppressions_honored;
    return;
  }
  analysis::Diagnostic d;
  d.rule = rule;
  d.severity = sev;
  d.subject = f.path + ":" + std::to_string(line);
  d.message = std::move(message);
  d.fix_hint = std::move(fix_hint);
  findings.push_back(std::move(d));
}

// -- PSL503: false-sharing layout in shard-shared classes ---------------------

void rule_psl503(const SourceFile& f, const ContendConfig& cfg,
                 const srclint::RuleSelection& sel,
                 std::vector<analysis::Diagnostic>& findings,
                 FileRuleStats& stats) {
  const auto& t = f.tokens;
  for (const srclint::ClassBody& cb :
       srclint::find_class_bodies(f, cfg.shared_classes)) {
    for (const MemberStmt& st : member_statements(f, cb)) {
      if (looks_like_function_decl(f, st)) continue;
      if (stmt_has(f, st, "alignas") || stmt_has(f, st, "CacheAligned") ||
          stmt_has(f, st, "unique_ptr") || stmt_has(f, st, "shared_ptr") ||
          stmt_has(f, st, "static"))
        continue;
      const std::string name = field_name(f, st);
      if (name.empty()) continue;

      // (a) per-shard array of unpadded scalar-sized elements.
      bool fired = false;
      for (std::size_t k = 0; k + 1 < st.toks.size(); ++k) {
        const Token& tk = t[st.toks[k]];
        if (tk.kind != Tok::Identifier ||
            (tk.text != "vector" && tk.text != "array"))
          continue;
        if (t[st.toks[k + 1]].text != "<") continue;
        bool scalar = false;
        bool padded = false;
        int angle = 0;
        for (std::size_t m = k + 1; m < st.toks.size(); ++m) {
          const Token& mt = t[st.toks[m]];
          if (mt.kind == Tok::Punct) {
            if (mt.text == "<") ++angle;
            else if (mt.text == ">" && --angle == 0) break;
            else if (mt.text == ">>" && (angle -= 2) <= 0) break;
            continue;
          }
          if (mt.kind != Tok::Identifier) continue;
          if (is_scalarish(mt.text)) scalar = true;
          if (is_padding_wrapper(mt.text)) padded = true;
        }
        if (scalar && !padded) {
          emit(findings, stats, f, sel, "PSL503",
               analysis::Severity::Warning, st.line,
               "per-shard container `" + cb.name + "::" + name +
                   "` packs scalar-sized elements contiguously: adjacent "
                   "slots written by different race::Domain workers share "
                   "a " +
                   std::to_string(64) + "-byte cache line",
               "wrap the element type in util::CacheAligned<> (or pad "
               "with alignas(util::kCacheLineBytes)) so each domain's "
               "slot owns its line");
          fired = true;
        }
        break;
      }
      if (fired) continue;

      // (b) a bare atomic member next to other mutable fields.
      if (stmt_has(f, st, "atomic")) {
        emit(findings, stats, f, sel, "PSL503", analysis::Severity::Warning,
             st.line,
             "atomic member `" + cb.name + "::" + name +
                 "` is declared without cache-line isolation in a "
                 "shard-shared class: its line ping-pongs with whatever "
                 "fields the compiler packs beside it",
             "isolate it with alignas(util::kCacheLineBytes) or "
             "util::CacheAligned<>");
      }
    }
  }
}

// -- PSL504: shared atomic updated inside a hot loop --------------------------

void rule_psl504(const SourceFile& f, const srclint::RuleSelection& sel,
                 std::vector<analysis::Diagnostic>& findings,
                 FileRuleStats& stats) {
  const auto& t = f.tokens;

  // All atomic-typed declaration names in the file (members and locals).
  std::set<std::string> atomics;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].pp || t[i].kind != Tok::Identifier || t[i].text != "atomic")
      continue;
    std::size_t j = i + 1;
    if (t[j].text == "<") {
      int angle = 0;
      for (; j < t.size(); ++j) {
        if (t[j].kind != Tok::Punct) continue;
        if (t[j].text == "<") ++angle;
        else if (t[j].text == ">" && --angle == 0) { ++j; break; }
        else if (t[j].text == ">>" && (angle -= 2) <= 0) { ++j; break; }
        else if (t[j].text == ";") break;
      }
    }
    while (j < t.size() && t[j].kind == Tok::Punct &&
           (t[j].text == "*" || t[j].text == "&"))
      ++j;
    if (j < t.size() && t[j].kind == Tok::Identifier)
      atomics.insert(t[j].text);
  }
  if (atomics.empty()) return;

  std::set<std::pair<std::string, int>> fired;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].pp || t[i].kind != Tok::Identifier) continue;
    if (t[i].text != "for" && t[i].text != "while") continue;
    if (t[i + 1].text != "(") continue;
    const std::size_t cond_close = srclint::match_forward(t, i + 1);
    if (cond_close >= t.size()) continue;
    std::size_t body_open = cond_close + 1;
    if (body_open >= t.size() || t[body_open].text != "{")
      continue;  // single-statement loops: out of model
    const std::size_t body_close = srclint::match_forward(t, body_open);
    if (body_close >= t.size()) continue;

    for (std::size_t k = body_open + 1; k < body_close; ++k) {
      if (t[k].pp || t[k].kind != Tok::Identifier) continue;
      if (atomics.count(t[k].text) == 0) continue;
      const std::string& name = t[k].text;
      bool update = false;
      if (k + 2 < body_close && t[k + 1].kind == Tok::Punct &&
          (t[k + 1].text == "." || t[k + 1].text == "->") &&
          t[k + 2].kind == Tok::Identifier &&
          (t[k + 2].text == "fetch_add" || t[k + 2].text == "fetch_sub"))
        update = true;
      if (k + 1 < body_close && t[k + 1].kind == Tok::Punct &&
          (t[k + 1].text == "+=" || t[k + 1].text == "-=" ||
           t[k + 1].text == "++" || t[k + 1].text == "--"))
        update = true;
      if (k > 0 && t[k - 1].kind == Tok::Punct &&
          (t[k - 1].text == "++" || t[k - 1].text == "--"))
        update = true;
      if (!update) continue;
      if (!fired.insert({name, t[k].line}).second) continue;
      emit(findings, stats, f, sel, "PSL504", analysis::Severity::Warning,
           t[k].line,
           "shared atomic `" + name +
               "` is read-modify-written on every iteration of a loop: "
               "under 8-way sharding the cache line bounces between "
               "domains once per event",
           "accumulate into a function-local counter and publish to the "
           "atomic once per window (or per drain), not per iteration");
    }
  }
}

// -- PSL501/PSL502: whole-scan lock-order graph ------------------------------

/// PSL501: one ERROR per lock-order cycle, anchored at the cycle's
/// lexicographically-first witness edge so the subject is stable.
void rule_psl501(const std::vector<LockCycle>& cycles,
                 const std::map<std::string, const SourceFile*>& by_path,
                 std::vector<analysis::Diagnostic>& findings,
                 FileRuleStats& stats) {
  for (const LockCycle& cyc : cycles) {
    const LockEdge* anchor = &cyc.edges.front();
    for (const LockEdge& e : cyc.edges) {
      if (e.file + ":" + std::to_string(e.line) <
          anchor->file + ":" + std::to_string(anchor->line))
        anchor = &e;
    }
    const auto it = by_path.find(anchor->file);
    if (it != by_path.end() &&
        it->second->suppressed("PSL501", anchor->line)) {
      ++stats.suppressions_honored;
      continue;
    }
    std::ostringstream cycle_txt;
    for (const std::string& n : cyc.nodes) cycle_txt << n << " -> ";
    cycle_txt << cyc.nodes.front();
    std::ostringstream witness;
    for (std::size_t i = 0; i < cyc.edges.size(); ++i) {
      const LockEdge& e = cyc.edges[i];
      witness << (i == 0 ? "" : ", ") << e.from << "->" << e.to << " at "
              << e.file << ":" << e.line;
    }
    analysis::Diagnostic d;
    d.rule = "PSL501";
    d.severity = analysis::Severity::Error;
    d.subject = anchor->file + ":" + std::to_string(anchor->line);
    d.message = "lock-order cycle: " + cycle_txt.str() + " (" +
                witness.str() + ") — two workers taking these locks in "
                "opposite order deadlock the window protocol";
    d.fix_hint =
        "impose one global acquisition order (document it where the "
        "mutexes are declared) and release before taking the earlier lock";
    findings.push_back(std::move(d));
  }
}

/// PSL502: ERROR for every lock held across a blocking seam.
void rule_psl502(const LockGraph& g,
                 const std::map<std::string, const SourceFile*>& by_path,
                 std::vector<analysis::Diagnostic>& findings,
                 FileRuleStats& stats) {
  std::set<std::string> emitted;  // dedupe (lock, file, line)
  for (const BlockingViolation& v : g.blocking()) {
    const std::string key =
        v.lock + "|" + v.file + "|" + std::to_string(v.line);
    if (!emitted.insert(key).second) continue;
    const auto it = by_path.find(v.file);
    if (it != by_path.end() && it->second->suppressed("PSL502", v.line)) {
      ++stats.suppressions_honored;
      continue;
    }
    analysis::Diagnostic d;
    d.rule = "PSL502";
    d.severity = analysis::Severity::Error;
    d.subject = v.file + ":" + std::to_string(v.line);
    d.message = "lock `" + v.lock + "` is held across a blocking seam (" +
                v.seam +
                "): every other thread needing it inherits the full "
                "barrier/wait latency, the serialization the paper's "
                "gang-dispatch exists to avoid";
    d.fix_hint =
        "release the lock before parking: copy what the critical section "
        "needs, unlock, then wait (the ShardedEngine drains inboxes "
        "outside its plan lock for exactly this reason)";
    findings.push_back(std::move(d));
  }
}

// -- PSL505: coarse mutex over Owned-tagged state -----------------------------

void rule_psl505(const SourceFile& f, const FileLocks& locks,
                 const srclint::RuleSelection& sel,
                 std::vector<analysis::Diagnostic>& findings,
                 FileRuleStats& stats) {
  const auto& t = f.tokens;
  std::set<std::string> owned_classes;
  for (const srclint::ClassBody& cb : srclint::find_all_class_bodies(f)) {
    for (std::size_t i = cb.body_begin; i + 1 < cb.body_end; ++i) {
      if (!t[i].pp && t[i].kind == Tok::Identifier &&
          t[i].text == "Owned" && t[i + 1].text == "<") {
        owned_classes.insert(cb.name);
        break;
      }
    }
  }
  for (const MutexMember& m : locks.mutex_members) {
    if (owned_classes.count(m.cls) == 0) continue;
    const std::string site = m.cls + "." + m.member;
    emit(findings, stats, f, sel, "PSL505", analysis::Severity::Warning,
         m.line,
         "mutex `" + site + "` guards a class whose race::Owned tag "
         "proves single-domain ownership: the lock is wider than the "
         "ownership scope and serializes a partition-private path",
         "narrow the mutex to the genuinely shared state, or suppress "
         "with srclint-ok(PSL505)");
  }
}

}  // namespace

void run_file_rules(const SourceFile& f, const FileLocks& locks,
                    const ContendConfig& cfg,
                    const srclint::RuleSelection& sel,
                    std::vector<analysis::Diagnostic>& findings,
                    FileRuleStats& stats) {
  rule_psl503(f, cfg, sel, findings, stats);
  rule_psl504(f, sel, findings, stats);
  rule_psl505(f, locks, sel, findings, stats);
}

std::size_t run_graph_rules(
    const LockGraph& g,
    const std::map<std::string, const SourceFile*>& by_path,
    const srclint::RuleSelection& sel,
    std::vector<analysis::Diagnostic>& findings, FileRuleStats& stats) {
  const std::vector<LockCycle> cycles = g.cycles();
  if (sel.enabled("PSL501")) rule_psl501(cycles, by_path, findings, stats);
  if (sel.enabled("PSL502")) rule_psl502(g, by_path, findings, stats);
  return cycles.size();
}

}  // namespace pasched::contend
