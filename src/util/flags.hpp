// Minimal command-line flag parser for the bench/example/tool binaries.
// Syntax: --name=value or --name value; bare --name sets a bool flag true.
#pragma once

#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace pasched::util {

/// A flag value that does not parse as the type asked for (--nodes=abc).
class FlagError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

class Flags {
 public:
  Flags(int argc, const char* const* argv);

  [[nodiscard]] bool has(std::string_view name) const;
  [[nodiscard]] std::string get(std::string_view name,
                                std::string_view fallback) const;
  [[nodiscard]] long long get_int(std::string_view name,
                                  long long fallback) const;
  [[nodiscard]] double get_double(std::string_view name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(std::string_view name, bool fallback) const;

  /// Positional (non-flag) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// Flags the caller never queried — useful for typo detection.
  [[nodiscard]] std::vector<std::string> unknown(
      const std::vector<std::string>& known) const;

 private:
  std::map<std::string, std::string, std::less<>> values_;
  std::vector<std::string> positional_;
};

/// The shared tool entry point: parses argv and runs `body`. A malformed
/// flag value (FlagError) prints "<tool>: <message>" to stderr and returns
/// 64, the bad-usage exit status every pasched tool documents.
[[nodiscard]] int run_tool(std::string_view tool, int argc,
                           const char* const* argv,
                           int (*body)(const Flags&));

/// Writes a tool's --report/--json/--schedule-out output: `contents` to
/// `path`, then "<what> written to <path>" on stdout. An empty `path` (the
/// flag was not given) writes nothing. Returns the run's exit status: `rc`
/// after a good write; when the open, write or close fails, "<tool>: cannot
/// write <path>" goes to stderr and a run that would otherwise pass (rc 0)
/// exits 64, while a failed run keeps its own status.
[[nodiscard]] int write_output(std::string_view tool, const std::string& path,
                               std::string_view what,
                               std::string_view contents, int rc);

}  // namespace pasched::util
