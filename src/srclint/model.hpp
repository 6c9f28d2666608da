// Structural recovery over the token stream: the light syntax the PSL4xx
// rules need — PASCHED_HOT-annotated function bodies, class bodies of named
// shard-resident types, and the argument token ranges of PASCHED_CHECK-
// family macro invocations. All extents are [begin, end) token indices into
// SourceFile::tokens.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "srclint/source.hpp"

namespace pasched::srclint {

/// A function definition bound to a PASCHED_HOT marker.
struct HotFunction {
  std::string name;        // best-effort: last identifier before the ( list
  int line = 0;            // line of the marker
  std::size_t body_begin = 0;  // token index just after the opening {
  std::size_t body_end = 0;    // token index of the matching }
};

/// A class/struct body of interest.
struct ClassBody {
  std::string name;
  int line = 0;
  std::size_t body_begin = 0;
  std::size_t body_end = 0;
};

/// A macro invocation NAME(args...): the token range between the outer
/// parentheses.
struct MacroCall {
  std::string name;
  int line = 0;
  std::size_t args_begin = 0;
  std::size_t args_end = 0;
};

/// Token index of the brace/paren/bracket matching tokens[open]; returns
/// tokens.size() when unbalanced. `open` must index a "(", "[" or "{".
[[nodiscard]] std::size_t match_forward(const std::vector<Token>& toks,
                                        std::size_t open);

/// Every function definition whose declaration carries the `marker`
/// identifier (e.g. "PASCHED_HOT"). Pure declarations (ending in ';' before
/// any '{') are skipped. Preprocessor lines are ignored, so the macro's own
/// #define never binds.
[[nodiscard]] std::vector<HotFunction> find_marked_functions(
    const SourceFile& f, std::string_view marker);

/// Bodies of class/struct definitions whose name is in `names`. Forward
/// declarations are skipped.
[[nodiscard]] std::vector<ClassBody> find_class_bodies(
    const SourceFile& f, const std::vector<std::string>& names);

/// Invocations of the given function-like macros (identifier immediately
/// followed by "("), outside preprocessor lines.
[[nodiscard]] std::vector<MacroCall> find_macro_calls(
    const SourceFile& f, const std::vector<std::string>& names);

/// A recovered function definition: name (qualified "Class::name" when the
/// definition is written out-of-line), parameter-list and body extents.
struct FunctionDef {
  std::string name;        // "post", "ShardedEngine::post", "TEST", ...
  int line = 0;            // line of the name token
  std::size_t params_begin = 0;  // token index just after the opening (
  std::size_t params_end = 0;    // token index of the matching )
  std::size_t body_begin = 0;    // token index just after the opening {
  std::size_t body_end = 0;      // token index of the matching }
};

/// Every function definition in the file, found by the `name ( params )
/// [qualifiers] [: ctor-init-list] {` shape. Control-flow keywords, pure
/// declarations (ending in ';') and call expressions are skipped; lambdas
/// are not recovered as functions (their bodies belong to the enclosing
/// definition). This is the walker the PSL50x rules build per-function
/// locksets on, so recall matters more than precision: a macro-heavy
/// pseudo-definition (TEST(a, b) { ... }) is recovered as a function too.
[[nodiscard]] std::vector<FunctionDef> find_functions(const SourceFile& f);

/// Bodies of every named class/struct definition in the file (the
/// find_class_bodies walk without the name filter).
[[nodiscard]] std::vector<ClassBody> find_all_class_bodies(const SourceFile& f);

}  // namespace pasched::srclint
