// A Schedule is the replay format of the window fuzzer: the ordered list of
// bounded decisions (window quanta) that a run consumed through a
// sim::ChoiceSource. Replaying the same schedule through a GuidedSource
// makes a PSL204 counterexample bit-reproducible.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sim/choice.hpp"

namespace pasched::race {

/// One recorded decision: at a choice point named `tag` with `arity`
/// alternatives, `pick` was taken.
struct Choice {
  std::string tag;
  std::size_t arity = 0;
  std::size_t pick = 0;
  friend bool operator==(const Choice&, const Choice&) = default;
};

/// An ordered list of decisions. The first size() choice points of a run
/// replay these picks; every later choice point takes the default (0).
class Schedule {
 public:
  [[nodiscard]] std::size_t size() const noexcept { return choices_.size(); }
  [[nodiscard]] const Choice& at(std::size_t i) const { return choices_[i]; }
  void push_back(Choice c) { choices_.push_back(std::move(c)); }

  friend bool operator==(const Schedule&, const Schedule&) = default;

  /// Human-readable one-choice-per-line form ("tag arity pick").
  [[nodiscard]] std::string str() const;
  /// Same as str() plus a header comment; parse() accepts it back.
  [[nodiscard]] std::string serialize() const;
  /// Parses serialize()/str() output. '#' starts a comment; blank lines are
  /// skipped. Throws std::logic_error on malformed lines or pick >= arity.
  [[nodiscard]] static Schedule parse(const std::string& text);

 private:
  std::vector<Choice> choices_;
};

/// A ChoiceSource that replays a schedule prefix and defaults to 0 beyond
/// it, recording every decision actually made (with the live arity). Replay
/// is lenient about arity drift: a prefix pick is clamped to the live
/// arity - 1, so slightly stale counterexamples still steer the run.
class GuidedSource final : public sim::ChoiceSource {
 public:
  explicit GuidedSource(Schedule prefix) : prefix_(std::move(prefix)) {}

  std::size_t choose(std::size_t n, const char* tag) override;

  /// Everything decided so far (prefix replays + default suffix).
  [[nodiscard]] const Schedule& trace() const noexcept { return trace_; }
  /// True if any replayed pick had to be clamped to a smaller live arity.
  [[nodiscard]] bool clamped() const noexcept { return clamped_; }

 private:
  Schedule prefix_;
  Schedule trace_;
  bool clamped_ = false;
};

}  // namespace pasched::race
