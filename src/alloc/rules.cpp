#include "alloc/rules.hpp"

#include <algorithm>
#include <set>

namespace pasched::alloc {

using srclint::SourceFile;
using srclint::Tok;
using srclint::Token;

namespace {

[[nodiscard]] bool contains(const std::vector<std::string>& v,
                            const std::string& x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

/// Heap-owning standard types: declaring a local of one (or holding one as
/// a member of an arena-resident type) implies heap traffic / indirection.
/// Token-literal on purpose — an alias (`using Callback = std::function<..>`)
/// is the sanctioned way to say "audited, the indirection is the design".
[[nodiscard]] bool is_owning_type(const std::string& x) noexcept {
  static const char* const kOwning[] = {
      "string",        "basic_string", "vector",       "deque",
      "list",          "forward_list", "map",          "multimap",
      "set",           "multiset",     "unordered_map", "unordered_set",
      "unordered_multimap", "unordered_multiset", "function",
      "stringstream",  "ostringstream", "istringstream"};
  return std::any_of(std::begin(kOwning), std::end(kOwning),
                     [&](const char* k) { return x == k; });
}

/// Smart-pointer members add indirection (a pointer chase per event) even
/// when ownership is intentional — PSL603 layout hazards only.
[[nodiscard]] bool is_indirect_type(const std::string& x) noexcept {
  return x == "unique_ptr" || x == "shared_ptr" || x == "weak_ptr";
}

/// Allocation entry points flagged by name (PSL601).
[[nodiscard]] bool is_alloc_call(const std::string& x) noexcept {
  static const char* const kAlloc[] = {"malloc",       "calloc",
                                       "realloc",      "aligned_alloc",
                                       "strdup",       "make_unique",
                                       "make_shared"};
  return std::any_of(std::begin(kAlloc), std::end(kAlloc),
                     [&](const char* k) { return x == k; });
}

/// Member growth calls whose receiver PSL602 audits for the
/// reserve/reused-scratch discipline.
[[nodiscard]] bool is_growth_call(const std::string& x) noexcept {
  return x == "push_back" || x == "emplace_back" || x == "emplace" ||
         x == "insert" || x == "resize" || x == "append";
}

/// Index just past the template argument list opened by t[open] == "<";
/// returns `open` unchanged when the '<' turns out to be a comparison
/// (no balanced '>' before ';' / '{' / end of extent).
[[nodiscard]] std::size_t skip_angles(const std::vector<Token>& t,
                                      std::size_t open, std::size_t limit) {
  int depth = 0;
  for (std::size_t j = open; j < limit; ++j) {
    if (t[j].text == "<") ++depth;
    else if (t[j].text == ">") {
      if (--depth == 0) return j + 1;
    } else if (t[j].text == ">>") {
      depth -= 2;
      if (depth <= 0) return j + 1;
    } else if (t[j].text == ";" || t[j].text == "{") {
      break;
    }
  }
  return open;
}

/// One hot region: a function body the PSL601/602 rules police.
struct HotRegion {
  std::string name;  // qualified when recoverable ("Engine::cancel")
  int line = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
  bool marked = false;  // carries the PASCHED_HOT marker (claim-eligible)
};

/// One PSL601/PSL602 hit inside a hot region, before suppression filtering
/// (a suppressed hit still forfeits the region's PSL605 claim).
struct AllocHit {
  std::string rule;
  int line = 0;
  std::string message;
  std::string fix_hint;
};

[[nodiscard]] std::vector<HotRegion> hot_regions(const SourceFile& f,
                                                 const AllocConfig& cfg,
                                                 FileRuleStats& stats) {
  std::vector<HotRegion> out;
  std::set<std::size_t> seen_bodies;

  const std::vector<srclint::FunctionDef> defs = srclint::find_functions(f);
  stats.functions += defs.size();

  for (const srclint::HotFunction& h :
       srclint::find_marked_functions(f, srclint::kHotMarker)) {
    HotRegion r;
    r.name = h.name;
    r.line = h.line;
    r.begin = h.body_begin;
    r.end = h.body_end;
    r.marked = true;
    for (const srclint::FunctionDef& d : defs) {
      if (d.body_begin == h.body_begin) {
        r.name = d.name;  // qualified — joins the runtime site rows
        break;
      }
    }
    seen_bodies.insert(r.begin);
    out.push_back(std::move(r));
  }

  for (const srclint::FunctionDef& d : defs) {
    if (!contains(cfg.lifecycle_functions, d.name)) continue;
    if (!seen_bodies.insert(d.body_begin).second) continue;
    out.push_back(HotRegion{d.name, d.line, d.body_begin, d.body_end, false});
  }
  return out;
}

/// The PSL602 discipline: somewhere in this file the receiver is reserved,
/// cleared-for-reuse, or grown through the cold-region helper. File-level
/// on purpose — the reserve typically lives in the constructor or a cold
/// grow_*() helper, not in the hot function itself.
[[nodiscard]] bool growth_disciplined(const SourceFile& f,
                                      const std::string& recv) {
  const auto& t = f.tokens;
  for (std::size_t j = 0; j + 2 < t.size(); ++j) {
    if (t[j].pp) continue;
    if (t[j].text == recv && (t[j + 1].text == "." || t[j + 1].text == "->") &&
        (t[j + 2].text == "reserve" || t[j + 2].text == "clear"))
      return true;
    if (t[j].text == "reserve_cold" && t[j + 1].text == "(") {
      // The receiver may be spelled with member access (`c.runq`): accept
      // `recv` anywhere in the first argument (up to the separating comma).
      for (std::size_t k = j + 2; k < t.size() && !t[k].pp; ++k) {
        if (t[k].text == "," || t[k].text == ")" || t[k].text == ";") break;
        if (t[k].text == recv) return true;
      }
    }
  }
  return false;
}

/// PSL601 + PSL602 over one hot region. Returns raw hits; the caller
/// applies suppression/only filtering for findings and uses the unfiltered
/// count for PSL605 claim eligibility.
[[nodiscard]] std::vector<AllocHit> scan_region(const SourceFile& f,
                                                const HotRegion& r) {
  std::vector<AllocHit> hits;
  const auto& t = f.tokens;
  for (std::size_t i = r.begin; i < r.end && i < t.size(); ++i) {
    if (t[i].pp || t[i].kind != Tok::Identifier) continue;
    const std::string& x = t[i].text;
    const bool member_access =
        i > 0 && (t[i - 1].text == "." || t[i - 1].text == "->");

    if (x == "new" && !member_access &&
        !(i > 0 && t[i - 1].text == "operator")) {
      // `new (addr) T` is placement construction into owned storage.
      if (i + 1 < r.end && t[i + 1].text == "(") continue;
      hits.push_back(AllocHit{
          "PSL601", t[i].line,
          "heap allocation (`new`) inside hot function `" + r.name +
              "`: the per-event path must run allocation-free",
          "draw from a pre-sized slab/free-list grown only inside a "
          "PASCHED_ALLOC_COLD_REGION, or move the allocation out of the "
          "event path"});
      continue;
    }

    if (is_alloc_call(x) && !member_access && i + 1 < r.end &&
        (t[i + 1].text == "(" || t[i + 1].text == "<")) {
      hits.push_back(AllocHit{
          "PSL601", t[i].line,
          "heap allocation (`" + x + "`) inside hot function `" + r.name +
              "`: the per-event path must run allocation-free",
          "hoist the allocation to setup/cold code and reuse the storage "
          "across events (reserve + clear, or an arena slab)"});
      continue;
    }

    if (is_owning_type(x) && !member_access &&
        !(i > 0 && t[i - 1].text == "~")) {
      std::size_t j = i + 1;
      if (j < r.end && t[j].text == "<") {
        const std::size_t past = skip_angles(t, j, r.end);
        if (past == j) continue;  // comparison, not template args
        j = past;
      }
      if (j >= r.end) continue;
      // Reference/pointer/nested-type uses don't construct the container.
      if (t[j].text == "&" || t[j].text == "*" || t[j].text == "::" ||
          t[j].text == ">")
        continue;
      if (t[j].kind != Tok::Identifier && t[j].text != "(" &&
          t[j].text != "{")
        continue;
      // `std::string s;` needs a declarator or a temporary to allocate.
      if (!(x == "string" || x == "function") && t[j].kind == Tok::Identifier &&
          j == i + 1)
        continue;  // `vector foo` without template args: not a C++ decl
      hits.push_back(AllocHit{
          "PSL601", t[i].line,
          "owning container `" + x + "` constructed inside hot function `" +
              r.name + "`: its buffer is a per-event heap allocation",
          "make it a member scratch buffer (clear()ed per call, grown via "
          "util::reserve_cold) so capacity survives across events"});
      continue;
    }

    if (is_growth_call(x) && member_access && i >= 2 && i + 1 < r.end &&
        t[i + 1].text == "(" && t[i - 2].kind == Tok::Identifier) {
      const std::string& recv = t[i - 2].text;
      if (growth_disciplined(f, recv)) continue;
      hits.push_back(AllocHit{
          "PSL602", t[i].line,
          "container `" + recv + "` grows (`" + x +
              "`) inside hot function `" + r.name +
              "` with no reserve/reuse discipline in this file: steady-state "
              "events can hit a reallocation",
          "pre-size `" + recv +
              "` (reserve in the constructor or a cold grow helper, or "
          "util::reserve_cold before the loop) or reuse it as a cleared "
          "scratch buffer"});
      continue;
    }
  }
  return hits;
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

// -- PSL603: cache-layout hazards in event/shard-resident types ---------------

void rule_psl603(const SourceFile& f, const AllocConfig& cfg,
                 const srclint::RuleSelection& sel,
                 std::vector<analysis::Diagnostic>& findings,
                 FileRuleStats& stats) {
  const auto& t = f.tokens;
  for (const srclint::ClassBody& cb :
       srclint::find_class_bodies(f, cfg.layout_types)) {
    std::set<int> fired;  // one finding per line
    for (std::size_t i = cb.body_begin; i < cb.body_end; ++i) {
      if (t[i].pp || t[i].kind != Tok::Identifier) continue;
      const bool member_access =
          i > 0 && (t[i - 1].text == "." || t[i - 1].text == "->");
      if (member_access) continue;
      const std::string& x = t[i].text;
      if (is_owning_type(x) || is_indirect_type(x)) {
        if (!fired.insert(t[i].line).second) continue;
        emit(findings, stats, f, sel, "PSL603",
             analysis::Severity::Warning, t[i].line,
             "`" + cb.name + "` is event/shard-resident but holds a `" + x +
                 "` member: every event touching it pays a pointer chase "
                 "(and possibly an allocation) outside the slab's cache "
                 "footprint",
             "store a fixed-size value or an index into engine-owned "
             "storage instead; if the indirection is the audited design, "
             "alias the type (`using X = std::" + x +
                 "<...>`) where it is declared and document why");
        continue;
      }
      // Raw-pointer member: `Type * name ;` / `Type * name =`.
      if (i + 3 < cb.body_end && t[i + 1].text == "*" &&
          t[i + 2].kind == Tok::Identifier &&
          (t[i + 3].text == ";" || t[i + 3].text == "=")) {
        if (!fired.insert(t[i].line).second) continue;
        emit(findings, stats, f, sel, "PSL603",
             analysis::Severity::Warning, t[i].line,
             "`" + cb.name + "` is event/shard-resident but holds raw "
             "pointer member `" + t[i + 2].text +
                 "`: a per-event dereference leaves the slab's cache "
                 "footprint, and ownership is invisible to the arena "
                 "contract",
             "prefer a slot index into engine-owned storage; if the "
             "pointer is genuinely non-owning and cold, suppress with "
             "srclint-ok(PSL603) and say so");
      }
    }
  }
}

// -- PSL604: PASCHED_ARENA contract violations --------------------------------

void rule_psl604(const SourceFile& f, const AllocConfig& cfg,
                 const srclint::RuleSelection& sel,
                 std::vector<analysis::Diagnostic>& findings,
                 FileRuleStats& stats) {
  const auto& t = f.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].pp || t[i].kind != Tok::Identifier ||
        t[i].text != cfg.arena_marker)
      continue;
    // `struct PASCHED_ARENA Name { ... }` or `PASCHED_ARENA struct Name`.
    std::size_t name_idx;
    if (i > 0 && (t[i - 1].text == "struct" || t[i - 1].text == "class"))
      name_idx = i + 1;
    else if (i + 1 < t.size() &&
             (t[i + 1].text == "struct" || t[i + 1].text == "class"))
      name_idx = i + 2;
    else
      continue;
    if (name_idx >= t.size() || t[name_idx].kind != Tok::Identifier)
      continue;
    const std::string name = t[name_idx].text;
    std::size_t open = name_idx + 1;
    while (open < t.size() && t[open].text != "{" && t[open].text != ";")
      ++open;
    if (open >= t.size() || t[open].text == ";") continue;  // fwd decl
    const std::size_t body_begin = open + 1;
    const std::size_t body_end = srclint::match_forward(t, open);
    if (body_end >= t.size()) continue;
    ++stats.arena_types;

    for (std::size_t k = body_begin; k < body_end; ++k) {
      if (t[k].pp) continue;
      if (t[k].text == "~" && k + 1 < body_end &&
          t[k + 1].text == name) {
        emit(findings, stats, f, sel, "PSL604", analysis::Severity::Error,
             t[k].line,
             "PASCHED_ARENA type `" + name +
                 "` declares a destructor: arena slabs never run "
                 "per-element destructors, so it would be skipped",
             "make the type trivially destructible (drop the destructor; "
             "release resources where the slab is torn down) or remove "
             "the PASCHED_ARENA annotation");
        continue;
      }
      if (t[k].kind == Tok::Identifier && t[k].text == "virtual") {
        emit(findings, stats, f, sel, "PSL604", analysis::Severity::Error,
             t[k].line,
             "PASCHED_ARENA type `" + name +
                 "` has a virtual member: a vptr breaks trivial "
                 "copyability and the memcpy-relocation contract",
             "use a discriminated union / kind field instead of virtual "
             "dispatch in arena-resident values");
        continue;
      }
      const bool member_access =
          k > 0 && (t[k - 1].text == "." || t[k - 1].text == "->");
      if (t[k].kind == Tok::Identifier && !member_access &&
          (is_owning_type(t[k].text) || is_indirect_type(t[k].text))) {
        emit(findings, stats, f, sel, "PSL604", analysis::Severity::Error,
             t[k].line,
             "PASCHED_ARENA type `" + name + "` owns heap memory (`" +
                 t[k].text +
                 "` member): slab relocation memcpys the value, and slab "
                 "teardown leaks what it points at",
             "store a fixed-size value or an index into engine-owned "
             "storage; owning members belong outside the arena");
        continue;
      }
      if (t[k].kind == Tok::Identifier && t[k].text == "new" &&
          !member_access && !(k + 1 < body_end && t[k + 1].text == "(")) {
        emit(findings, stats, f, sel, "PSL604", analysis::Severity::Error,
             t[k].line,
             "PASCHED_ARENA type `" + name +
                 "` allocates in a member function: arena values must not "
                 "own heap memory",
             "move the allocation to the engine's cold setup path");
      }
    }
  }
}

}  // namespace

bool AllocConfig::in_scope(const std::string& rel_path) const {
  if (scope.empty()) return true;
  return std::any_of(scope.begin(), scope.end(), [&](const std::string& p) {
    return rel_path.rfind(p, 0) == 0;
  });
}

void run_file_rules(const SourceFile& f, const AllocConfig& cfg,
                    const srclint::RuleSelection& sel,
                    std::vector<analysis::Diagnostic>& findings,
                    std::vector<AllocClaim>& claims, FileRuleStats& stats) {
  for (const HotRegion& r : hot_regions(f, cfg, stats)) {
    const std::vector<AllocHit> hits = scan_region(f, r);
    for (const AllocHit& h : hits)
      emit(findings, stats, f, sel, h.rule, analysis::Severity::Error,
           h.line, h.message, h.fix_hint);
    // PSL605: only a marker-carrying function with zero hits — suppressed
    // ones included — earns the allocation-free claim. A waiver silences
    // the finding; it cannot certify the region.
    if (r.marked && hits.empty())
      claims.push_back(AllocClaim{r.name, f.path, r.line});
  }
  rule_psl603(f, cfg, sel, findings, stats);
  rule_psl604(f, cfg, sel, findings, stats);
}

}  // namespace pasched::alloc
