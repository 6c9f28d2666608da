#include "srclint/model.hpp"

#include <algorithm>

namespace pasched::srclint {

namespace {

[[nodiscard]] char close_of(const std::string& open) noexcept {
  if (open == "(") return ')';
  if (open == "[") return ']';
  return '}';
}

}  // namespace

std::size_t match_forward(const std::vector<Token>& toks, std::size_t open) {
  const std::string& o = toks[open].text;
  const std::string c(1, close_of(o));
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (toks[i].kind != Tok::Punct) continue;
    if (toks[i].text == o) ++depth;
    else if (toks[i].text == c && --depth == 0) return i;
  }
  return toks.size();
}

std::vector<HotFunction> find_marked_functions(const SourceFile& f,
                                               std::string_view marker) {
  std::vector<HotFunction> out;
  const auto& t = f.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].pp || t[i].kind != Tok::Identifier || t[i].text != marker)
      continue;
    HotFunction fn;
    fn.line = t[i].line;
    int paren = 0;
    bool seen_params = false;
    for (std::size_t j = i + 1; j < t.size(); ++j) {
      const Token& tok = t[j];
      if (tok.kind == Tok::Punct) {
        if (tok.text == "(") {
          if (paren == 0 && !seen_params && !fn.name.empty())
            seen_params = true;
          ++paren;
        } else if (tok.text == ")") {
          --paren;
        } else if (paren == 0 && tok.text == ";") {
          break;  // declaration only — the definition binds elsewhere
        } else if (paren == 0 && tok.text == "{") {
          const std::size_t close = match_forward(t, j);
          if (close < t.size()) {
            fn.body_begin = j + 1;
            fn.body_end = close;
            out.push_back(fn);
          }
          break;
        } else if (paren == 0 && tok.text == "}") {
          break;  // fell out of the enclosing scope: marker was misplaced
        }
      } else if (tok.kind == Tok::Identifier && paren == 0 && !seen_params) {
        fn.name = tok.text;
      }
    }
  }
  return out;
}

namespace {

/// Shared walk behind find_class_bodies / find_all_class_bodies: `names`
/// nullptr keeps every named class/struct.
std::vector<ClassBody> scan_class_bodies(
    const SourceFile& f, const std::vector<std::string>* names) {
  std::vector<ClassBody> out;
  const auto& t = f.tokens;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].pp || t[i].kind != Tok::Identifier) continue;
    if (t[i].text != "class" && t[i].text != "struct") continue;
    if (i > 0 && t[i - 1].kind == Tok::Identifier && t[i - 1].text == "enum")
      continue;  // enum class
    const Token& nm = t[i + 1];
    if (nm.kind != Tok::Identifier) continue;
    if (names != nullptr &&
        std::find(names->begin(), names->end(), nm.text) == names->end())
      continue;
    // Find the body's '{', skipping the base-clause (template arguments in
    // base names are angle-counted; ">>" closes two).
    int paren = 0;
    int angle = 0;
    for (std::size_t j = i + 2; j < t.size(); ++j) {
      const Token& tok = t[j];
      if (tok.kind != Tok::Punct) continue;
      if (tok.text == "(") ++paren;
      else if (tok.text == ")") --paren;
      else if (tok.text == "<") ++angle;
      else if (tok.text == ">") angle = std::max(0, angle - 1);
      else if (tok.text == ">>") angle = std::max(0, angle - 2);
      else if (paren == 0 && angle == 0 && tok.text == ";") {
        break;  // forward declaration
      } else if (paren == 0 && angle == 0 && tok.text == "{") {
        const std::size_t close = match_forward(t, j);
        if (close < t.size())
          out.push_back(ClassBody{nm.text, nm.line, j + 1, close});
        break;
      }
    }
  }
  return out;
}

}  // namespace

std::vector<ClassBody> find_class_bodies(
    const SourceFile& f, const std::vector<std::string>& names) {
  return scan_class_bodies(f, &names);
}

std::vector<ClassBody> find_all_class_bodies(const SourceFile& f) {
  return scan_class_bodies(f, nullptr);
}

std::vector<MacroCall> find_macro_calls(const SourceFile& f,
                                        const std::vector<std::string>& names) {
  std::vector<MacroCall> out;
  const auto& t = f.tokens;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].pp || t[i].kind != Tok::Identifier) continue;
    if (std::find(names.begin(), names.end(), t[i].text) == names.end())
      continue;
    if (t[i + 1].kind != Tok::Punct || t[i + 1].text != "(") continue;
    const std::size_t close = match_forward(t, i + 1);
    if (close >= t.size()) continue;
    out.push_back(MacroCall{t[i].text, t[i].line, i + 2, close});
  }
  return out;
}

namespace {

[[nodiscard]] bool is_func_keyword(const std::string& x) noexcept {
  static const char* const kNot[] = {
      "if",     "for",          "while",    "switch",   "catch",
      "return", "sizeof",       "alignof",  "decltype", "new",
      "delete", "throw",        "case",     "co_await", "co_return",
      "co_yield", "static_assert", "alignas", "constexpr", "requires",
      "noexcept", "assert"};
  return std::any_of(std::begin(kNot), std::end(kNot),
                     [&](const char* k) { return x == k; });
}

/// Consumes a constructor initializer list starting at the token after the
/// ':'; returns the index of the body '{' or tokens.size() on mismatch.
[[nodiscard]] std::size_t skip_ctor_init_list(const std::vector<Token>& t,
                                              std::size_t j) {
  while (j < t.size()) {
    // Item head: qualified name, possibly with template arguments.
    bool head = false;
    int angle = 0;
    while (j < t.size()) {
      const Token& tk = t[j];
      if (tk.kind == Tok::Identifier || tk.text == "::") {
        head = true;
        ++j;
        continue;
      }
      if (tk.text == "<") { ++angle; ++j; continue; }
      if (angle > 0 && (tk.text == ">" || tk.text == ">>" ||
                        tk.text == "," || tk.kind == Tok::Identifier ||
                        tk.kind == Tok::Number)) {
        if (tk.text == ">") --angle;
        if (tk.text == ">>") angle -= 2;
        ++j;
        continue;
      }
      break;
    }
    if (!head || j >= t.size()) return t.size();
    // Item argument list: ( ... ) or { ... }.
    if (t[j].text != "(" && t[j].text != "{") return t.size();
    const std::size_t close = match_forward(t, j);
    if (close >= t.size()) return t.size();
    j = close + 1;
    if (j < t.size() && t[j].text == "...") ++j;  // pack expansion
    if (j >= t.size()) return t.size();
    if (t[j].text == ",") { ++j; continue; }
    if (t[j].text == "{") return j;  // the body
    return t.size();
  }
  return t.size();
}

}  // namespace

std::vector<FunctionDef> find_functions(const SourceFile& f) {
  std::vector<FunctionDef> out;
  const auto& t = f.tokens;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].pp || t[i].kind != Tok::Identifier) continue;
    if (t[i + 1].kind != Tok::Punct || t[i + 1].text != "(") continue;
    if (is_func_keyword(t[i].text)) continue;
    const std::size_t params_close = match_forward(t, i + 1);
    if (params_close >= t.size()) continue;

    // Qualifiers / trailing return / ctor-init-list between the parameter
    // list and the body. Anything unexpected (',', '=', ';', an operator)
    // means declaration or call expression — skip.
    std::size_t j = params_close + 1;
    std::size_t body_open = t.size();
    bool trailing_return = false;
    while (j < t.size()) {
      const Token& tk = t[j];
      if (tk.kind == Tok::Punct && tk.text == "{") {
        body_open = j;
        break;
      }
      if (tk.kind == Tok::Punct && tk.text == ";") break;  // declaration
      if (tk.kind == Tok::Identifier &&
          (tk.text == "const" || tk.text == "noexcept" ||
           tk.text == "override" || tk.text == "final" ||
           tk.text == "mutable" || tk.text == "try")) {
        ++j;
        if (tk.text == "noexcept" && j < t.size() && t[j].text == "(") {
          const std::size_t c = match_forward(t, j);
          if (c >= t.size()) break;
          j = c + 1;
        }
        continue;
      }
      if (tk.kind == Tok::Punct && (tk.text == "&" || tk.text == "&&")) {
        ++j;
        continue;
      }
      if (tk.kind == Tok::Punct && tk.text == "->") {
        trailing_return = true;
        ++j;
        continue;
      }
      if (trailing_return &&
          (tk.kind == Tok::Identifier || tk.text == "::" || tk.text == "<" ||
           tk.text == ">" || tk.text == ">>" || tk.text == "," ||
           tk.text == "*" || tk.text == "&" || tk.kind == Tok::Number)) {
        ++j;
        continue;
      }
      if (trailing_return && tk.text == "(") {
        const std::size_t c = match_forward(t, j);
        if (c >= t.size()) break;
        j = c + 1;
        continue;
      }
      if (tk.kind == Tok::Punct && tk.text == ":") {
        body_open = skip_ctor_init_list(t, j + 1);
        break;
      }
      break;  // not a definition shape
    }
    if (body_open >= t.size()) continue;
    const std::size_t body_close = match_forward(t, body_open);
    if (body_close >= t.size()) continue;

    FunctionDef fn;
    fn.line = t[i].line;
    fn.params_begin = i + 2;
    fn.params_end = params_close;
    fn.body_begin = body_open + 1;
    fn.body_end = body_close;
    fn.name = t[i].text;
    // Qualify out-of-line definitions: Class::name (one level is enough for
    // lockset attribution; deeper nests keep the innermost two).
    if (i >= 2 && t[i - 1].text == "::" && t[i - 2].kind == Tok::Identifier)
      fn.name = t[i - 2].text + "::" + fn.name;
    else if (i >= 1 && t[i - 1].text == "~")
      fn.name = "~" + fn.name;
    out.push_back(std::move(fn));
    i = body_open;  // nested definitions (lambdas) stay inside this body
  }
  return out;
}

}  // namespace pasched::srclint
