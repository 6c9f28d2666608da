// Cross-TU lock-order graph for the PSL50x rules. Canonicalizes the names
// extract_locks recorded ("mu" written inside ShardedEngine::post becomes
// the node "Inbox.mu" via the member-declaration map; locals fall back to
// "file:name"), merges same-named functions across TUs, closes acquired
// locksets and blocking-ness over the call graph, and builds the directed
// held-before graph whose cycles are PSL501 and whose blocking reach under
// a held lock is PSL502.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "contend/locks.hpp"

namespace pasched::contend {

/// One directed edge "held -> acquired" with its first witness site.
struct LockEdge {
  std::string from;
  std::string to;
  std::string file;  // witness
  int line = 0;
};

/// A lock-order cycle: the node sequence (closed: front() == logical
/// successor of back()) plus the witness edges that form it.
struct LockCycle {
  std::vector<std::string> nodes;
  std::vector<LockEdge> edges;
};

/// A PSL502 record: a lock held while reaching a blocking seam.
struct BlockingViolation {
  std::string lock;     // canonical held lock
  std::string seam;     // "arrive_and_wait", "wait", or "call to f (...)"
  std::string file;
  int line = 0;
  bool via_call = false;  // reached transitively through a call
};

/// Merged per-function summary after the cross-TU closure.
struct FunctionSummary {
  std::set<std::string> acquires;        // direct, canonical
  std::set<std::string> acquires_closed; // incl. everything callees acquire
  bool blocks_direct = false;            // contains a blocking seam itself
  bool blocks_closed = false;            // or reaches one through calls
  bool seam_locks_closed = false;        // acquires an instrumented seam
                                         // mutex (inbox-drain style) —
                                         // parking-adjacent for PSL502
};

class LockGraph {
 public:
  /// Builds from every file's extraction. `files` must be the full scan so
  /// the member map and call graph see all TUs at once.
  explicit LockGraph(const std::vector<FileLocks>& files);

  /// Canonical name for a mutex as written in `path`: "Class.member" when
  /// a class declares that member mutex, else "path:name".
  [[nodiscard]] std::string canonical(const std::string& name,
                                      const std::string& path) const;

  [[nodiscard]] const std::vector<LockEdge>& edges() const noexcept {
    return edges_;
  }
  /// Deterministic text form ("A -> B @ file:line"), sorted — the golden
  /// lock-order-graph format the tests snapshot.
  [[nodiscard]] std::vector<std::string> edge_lines() const;

  /// Elementary cycles (deduped by node set, capped at 8).
  [[nodiscard]] std::vector<LockCycle> cycles() const;

  /// PSL502 raw material: every lock held across a blocking seam, directly
  /// or through the call-graph closure.
  [[nodiscard]] const std::vector<BlockingViolation>& blocking() const
      noexcept {
    return blocking_;
  }

  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] const std::map<std::string, FunctionSummary>& functions()
      const noexcept {
    return functions_;
  }

 private:
  void add_edge(const std::string& from, const std::string& to,
                const std::string& file, int line);

  std::map<std::string, std::string> member_to_canonical_;  // "mu"->"Inbox.mu"
  std::map<std::string, bool> canonical_is_seam_;
  std::set<std::string> nodes_;
  std::vector<LockEdge> edges_;
  std::map<std::string, std::set<std::size_t>> adj_;  // node -> edge indices
  std::vector<BlockingViolation> blocking_;
  std::map<std::string, FunctionSummary> functions_;
};

}  // namespace pasched::contend
