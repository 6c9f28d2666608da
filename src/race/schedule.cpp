#include "race/schedule.hpp"

#include <sstream>

#include "util/assert.hpp"

namespace pasched::race {

std::string Schedule::str() const {
  std::ostringstream os;
  for (const Choice& c : choices_)
    os << c.tag << " " << c.arity << " " << c.pick << "\n";
  return os.str();
}

std::string Schedule::serialize() const {
  return "# pasched-race schedule v1 — replay with pasched race --replay\n" +
         str();
}

Schedule Schedule::parse(const std::string& text) {
  Schedule out;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    Choice c;
    if (!(ls >> c.tag)) continue;  // blank / comment-only line
    long long arity = -1;
    long long pick = -1;
    std::string extra;
    if (!(ls >> arity >> pick) || (ls >> extra) || arity < 1 || pick < 0 ||
        pick >= arity) {
      throw std::logic_error("schedule line " + std::to_string(lineno) +
                             ": expected 'tag arity pick' with pick < arity");
    }
    c.arity = static_cast<std::size_t>(arity);
    c.pick = static_cast<std::size_t>(pick);
    out.push_back(std::move(c));
  }
  return out;
}

std::size_t GuidedSource::choose(std::size_t n, const char* tag) {
  PASCHED_EXPECTS(n >= 1);
  std::size_t pick = 0;
  const std::size_t i = trace_.size();
  if (i < prefix_.size()) {
    pick = prefix_.at(i).pick;
    if (pick >= n) {
      pick = n - 1;
      clamped_ = true;
    }
  }
  trace_.push_back(Choice{tag, n, pick});
  return pick;
}

}  // namespace pasched::race
