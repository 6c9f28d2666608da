#include "util/flags.hpp"

#include <algorithm>
#include <fstream>
#include <iostream>

#include "util/strings.hpp"

namespace pasched::util {

namespace {

[[noreturn]] void bad_value(std::string_view name, const char* expected,
                            const std::string& got) {
  throw FlagError("flag --" + std::string(name) + " expects " + expected +
                  ", got '" + got + "'");
}

}  // namespace

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!starts_with(arg, "--")) {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    const auto eq = arg.find('=');
    if (eq != std::string_view::npos) {
      values_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
    } else if (i + 1 < argc && !starts_with(argv[i + 1], "--")) {
      values_[std::string(arg)] = argv[++i];
    } else {
      values_[std::string(arg)] = "true";
    }
  }
}

bool Flags::has(std::string_view name) const {
  return values_.find(name) != values_.end();
}

std::string Flags::get(std::string_view name, std::string_view fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? std::string(fallback) : it->second;
}

long long Flags::get_int(std::string_view name, long long fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const auto v = parse_int(it->second);
  if (!v) bad_value(name, "an integer", it->second);
  return *v;
}

double Flags::get_double(std::string_view name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const auto v = parse_double(it->second);
  if (!v) bad_value(name, "a number", it->second);
  return *v;
}

bool Flags::get_bool(std::string_view name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const auto v = parse_bool(it->second);
  if (!v) bad_value(name, "a bool", it->second);
  return *v;
}

std::vector<std::string> Flags::unknown(
    const std::vector<std::string>& known) const {
  std::vector<std::string> out;
  for (const auto& [k, _] : values_) {
    if (std::find(known.begin(), known.end(), k) == known.end())
      out.push_back(k);
  }
  return out;
}

int run_tool(std::string_view tool, int argc, const char* const* argv,
             int (*body)(const Flags&)) {
  try {
    return body(Flags(argc, argv));
  } catch (const FlagError& e) {
    std::cerr << tool << ": " << e.what() << "\n";
    return 64;
  }
}

int write_output(std::string_view tool, const std::string& path,
                 std::string_view what, std::string_view contents, int rc) {
  if (path.empty()) return rc;
  std::ofstream out(path, std::ios::binary);
  out << contents;
  out.close();
  if (!out) {
    std::cerr << tool << ": cannot write " << path << "\n";
    return rc == 0 ? 64 : rc;
  }
  std::cout << what << " written to " << path << "\n";
  return rc;
}

}  // namespace pasched::util
