#include "contend/locks.hpp"

#include <algorithm>
#include <map>

namespace pasched::contend {

using srclint::SourceFile;
using srclint::Tok;
using srclint::Token;

namespace {

[[nodiscard]] bool contains(const std::vector<std::string>& v,
                            const std::string& x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

/// Call-shaped identifiers that are never user functions worth a call-graph
/// edge (control flow, operators the lexer reads as idents, lock verbs the
/// extractor handles itself).
[[nodiscard]] bool ignored_callee(const std::string& x) noexcept {
  static const char* const kNot[] = {
      "if",       "for",       "while",      "switch",     "catch",
      "return",   "sizeof",    "alignof",    "decltype",   "new",
      "delete",   "throw",     "case",       "co_await",   "co_return",
      "co_yield", "static_assert",           "alignas",    "constexpr",
      "requires", "noexcept",  "assert",     "lock",       "unlock",
      "try_lock", "defer_lock", "adopt_lock", "try_to_lock"};
  return std::any_of(std::begin(kNot), std::end(kNot),
                     [&](const char* k) { return x == k; });
}

/// The held-set tracker for one function body: a stack of block frames of
/// RAII-guarded mutexes plus a flat set of manually locked ones.
class HeldTracker {
 public:
  void push_frame() { frames_.emplace_back(); }
  void pop_frame() {
    if (frames_.size() > 1) frames_.pop_back();
  }
  void add_scoped(const std::string& m) { frames_.back().push_back(m); }
  void add_manual(const std::string& m) {
    if (!contains(manual_, m)) manual_.push_back(m);
  }
  void release(const std::string& m) {
    auto drop = [&](std::vector<std::string>& v) {
      v.erase(std::remove(v.begin(), v.end(), m), v.end());
    };
    drop(manual_);
    for (auto& fr : frames_) drop(fr);
  }
  [[nodiscard]] std::vector<std::string> snapshot() const {
    std::vector<std::string> out;
    for (const auto& fr : frames_)
      for (const std::string& m : fr)
        if (!contains(out, m)) out.push_back(m);
    for (const std::string& m : manual_)
      if (!contains(out, m)) out.push_back(m);
    return out;
  }

 private:
  std::vector<std::vector<std::string>> frames_{{}};
  std::vector<std::string> manual_;
};

/// Last identifier of the token range [b, e): `in.mu` -> "mu",
/// `engines_[i]->mu` -> "mu", `*mup` -> "mup".
[[nodiscard]] std::string last_identifier(const std::vector<Token>& t,
                                          std::size_t b, std::size_t e) {
  std::string name;
  for (std::size_t i = b; i < e; ++i)
    if (!t[i].pp && t[i].kind == Tok::Identifier) name = t[i].text;
  return name;
}

/// Splits the argument range [b, e) at top-level commas.
[[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>> split_args(
    const std::vector<Token>& t, std::size_t b, std::size_t e) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  int depth = 0;
  std::size_t start = b;
  for (std::size_t i = b; i < e; ++i) {
    if (t[i].kind != Tok::Punct) continue;
    const std::string& x = t[i].text;
    if (x == "(" || x == "[" || x == "{") ++depth;
    else if (x == ")" || x == "]" || x == "}") --depth;
    else if (x == "," && depth == 0) {
      out.emplace_back(start, i);
      start = i + 1;
    }
  }
  if (start < e) out.emplace_back(start, e);
  return out;
}

/// Consumes `<...>` template arguments starting at t[j]=="<"; returns the
/// index just past the closing '>'. Conservative angle counting.
[[nodiscard]] std::size_t skip_template_args(const std::vector<Token>& t,
                                             std::size_t j) {
  int angle = 0;
  for (; j < t.size(); ++j) {
    if (t[j].kind != Tok::Punct) continue;
    if (t[j].text == "<") ++angle;
    else if (t[j].text == ">") {
      if (--angle == 0) return j + 1;
    } else if (t[j].text == ">>") {
      angle -= 2;
      if (angle <= 0) return j + 1;
    } else if (t[j].text == ";" || t[j].text == "{") {
      break;  // was a comparison, not template args
    }
  }
  return j;
}

}  // namespace

bool ContendConfig::in_scope(const std::string& rel_path) const {
  if (scope.empty()) return true;
  return std::any_of(scope.begin(), scope.end(), [&](const std::string& p) {
    return rel_path.rfind(p, 0) == 0;
  });
}

FileLocks extract_locks(const SourceFile& f, const ContendConfig& cfg) {
  FileLocks out;
  out.path = f.path;
  const auto& t = f.tokens;

  // Mutex member declarations: inside every class body, a mutex type name
  // followed by an identifier then ';' / '{' / '='.
  for (const srclint::ClassBody& cb : srclint::find_all_class_bodies(f)) {
    for (std::size_t i = cb.body_begin; i + 1 < cb.body_end; ++i) {
      if (t[i].pp || t[i].kind != Tok::Identifier) continue;
      if (!contains(cfg.mutex_types, t[i].text)) continue;
      std::size_t j = i + 1;
      if (j < cb.body_end && t[j].text == "<") j = skip_template_args(t, j);
      if (j >= cb.body_end || t[j].kind != Tok::Identifier) continue;
      const std::size_t k = j + 1;
      if (k >= cb.body_end || t[k].kind != Tok::Punct ||
          (t[k].text != ";" && t[k].text != "{" && t[k].text != "="))
        continue;
      out.mutex_members.push_back(MutexMember{
          cb.name, t[j].text, t[j].line, t[i].text == "SeamMutex"});
    }
  }

  for (const srclint::FunctionDef& fd : srclint::find_functions(f)) {
    FunctionLocks fl;
    fl.name = fd.name;
    fl.line = fd.line;
    HeldTracker held;
    // unique_lock/scoped guard variable -> underlying mutex, so that
    // `lk.lock()` / `lk.unlock()` resolve to the mutex, not to "lk".
    std::map<std::string, std::string> guard_var;

    for (std::size_t i = fd.body_begin; i < fd.body_end; ++i) {
      const Token& tok = t[i];
      if (tok.pp) continue;
      if (tok.kind == Tok::Punct) {
        if (tok.text == "{") held.push_frame();
        else if (tok.text == "}") held.pop_frame();
        continue;
      }
      if (tok.kind != Tok::Identifier) continue;

      // RAII guard declaration: guard_type [<...>] [var] ( args ) / { args }.
      if (contains(cfg.guard_types, tok.text)) {
        std::size_t j = i + 1;
        if (j < fd.body_end && t[j].text == "<") j = skip_template_args(t, j);
        std::string var;
        if (j < fd.body_end && t[j].kind == Tok::Identifier) {
          var = t[j].text;
          ++j;
        }
        if (j >= fd.body_end ||
            (t[j].text != "(" && t[j].text != "{"))
          continue;
        const std::size_t close = srclint::match_forward(t, j);
        if (close >= fd.body_end + 1) continue;
        bool deferred = false;
        std::vector<std::string> acquired;
        for (const auto& [ab, ae] : split_args(t, j + 1, close)) {
          bool defer_this = false;
          for (std::size_t k = ab; k < ae; ++k) {
            if (t[k].kind != Tok::Identifier) continue;
            if (t[k].text == "defer_lock") defer_this = true;
            if (t[k].text == "defer_lock" || t[k].text == "adopt_lock" ||
                t[k].text == "try_to_lock") {
              // tag argument, not a mutex
              goto next_arg;
            }
          }
          {
            const std::string m = last_identifier(t, ab, ae);
            if (!m.empty()) {
              if (defer_this) deferred = true;
              acquired.push_back(m);
            }
          }
        next_arg:;
          if (defer_this) deferred = true;
        }
        for (const std::string& m : acquired) {
          if (!var.empty()) guard_var[var] = m;
          if (deferred) continue;  // armed later via var.lock()
          fl.acquisitions.push_back(
              Acquisition{m, tok.line, held.snapshot()});
          if (!var.empty()) held.add_scoped(m);
          // An unnamed guard is a temporary: acquires and releases within
          // the statement, so it never joins the held set.
        }
        i = close;
        continue;
      }

      // Member-ish verbs: X.lock() / X->lock() / X.unlock() / blocking.
      const bool member_ctx =
          i > fd.body_begin &&
          (t[i - 1].text == "." || t[i - 1].text == "->");
      const bool call_shape =
          i + 1 < fd.body_end && t[i + 1].text == "(";
      if (member_ctx && call_shape &&
          (tok.text == "lock" || tok.text == "try_lock")) {
        if (i >= 2 && t[i - 2].kind == Tok::Identifier) {
          std::string m = t[i - 2].text;
          const auto it = guard_var.find(m);
          if (it != guard_var.end()) m = it->second;
          fl.acquisitions.push_back(
              Acquisition{m, tok.line, held.snapshot()});
          held.add_manual(m);
        }
        i = srclint::match_forward(t, i + 1);
        continue;
      }
      if (member_ctx && call_shape && tok.text == "unlock") {
        if (i >= 2 && t[i - 2].kind == Tok::Identifier) {
          std::string m = t[i - 2].text;
          const auto it = guard_var.find(m);
          if (it != guard_var.end()) m = it->second;
          held.release(m);
        }
        i = srclint::match_forward(t, i + 1);
        continue;
      }
      if (member_ctx && call_shape &&
          contains(cfg.blocking_calls, tok.text)) {
        fl.blocking.push_back(
            BlockingUse{tok.text, tok.line, held.snapshot()});
        i = srclint::match_forward(t, i + 1);
        continue;
      }

      // Plain call site for the cross-TU closure.
      if (call_shape && !ignored_callee(tok.text) &&
          !contains(cfg.guard_types, tok.text) &&
          !contains(cfg.blocking_calls, tok.text)) {
        fl.calls.push_back(CallSite{tok.text, tok.line, held.snapshot()});
        // Do NOT skip the argument range: nested calls are call sites too.
      }
    }
    out.functions.push_back(std::move(fl));
  }
  return out;
}

}  // namespace pasched::contend
