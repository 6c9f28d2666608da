// Per-function lockset extraction for the PSL50x lock-order rules.
// Built on the srclint token/structural model: for every recovered function
// definition we track which mutexes are held at each acquisition, each call
// site, and each direct blocking seam (barrier arrive_and_wait, condition
// wait). The graph layer (graph.hpp) canonicalizes names across TUs and
// closes over the call graph.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "srclint/model.hpp"
#include "srclint/source.hpp"

namespace pasched::contend {

/// Tunables for the analyzer. Defaults describe this repo's core; fixture
/// corpora reuse them unchanged (fixtures mirror the src/ layout).
struct ContendConfig {
  /// Path prefixes in scope for lock extraction and the PSL50x rules.
  /// Harness-local locks in tests/bench/tools are not scheduler seams.
  std::vector<std::string> scope = {"src/"};
  /// RAII guard templates whose constructor acquires its mutex arguments.
  std::vector<std::string> guard_types = {"scoped_lock", "lock_guard",
                                          "unique_lock", "shared_lock"};
  /// Type names that declare a mutex member ("Class.member" graph nodes).
  std::vector<std::string> mutex_types = {"mutex", "timed_mutex",
                                          "recursive_mutex", "shared_mutex",
                                          "SeamMutex"};
  /// Member calls that park the calling thread (blocking seams). Note
  /// arrive_and_drop is absent: dropping never parks.
  std::vector<std::string> blocking_calls = {"arrive_and_wait", "wait",
                                             "wait_for", "wait_until"};
  /// Classes whose field layout PSL503 audits for false sharing.
  std::vector<std::string> shared_classes = {"ShardedEngine", "Inbox",
                                             "Ledger"};
  [[nodiscard]] bool in_scope(const std::string& rel_path) const;
};

/// A mutex-typed data member: the declaration behind a "Class.member" node.
struct MutexMember {
  std::string cls;
  std::string member;
  int line = 0;
  bool seam = false;  // declared as util::SeamMutex (an instrumented seam)
};

/// One lock acquisition inside a function body.
struct Acquisition {
  std::string mutex;  // name as written (member/local; canonicalized later)
  int line = 0;
  std::vector<std::string> held;  // locks already held, as written
};

/// One call expression with the locks held at the call.
struct CallSite {
  std::string callee;  // unqualified name
  int line = 0;
  std::vector<std::string> held;
};

/// A direct blocking seam (arrive_and_wait / cv.wait family).
struct BlockingUse {
  std::string what;  // the blocking member name
  int line = 0;
  std::vector<std::string> held;
};

struct FunctionLocks {
  std::string name;  // qualified when written out-of-line
  int line = 0;
  std::vector<Acquisition> acquisitions;
  std::vector<CallSite> calls;
  std::vector<BlockingUse> blocking;
};

struct FileLocks {
  std::string path;
  std::vector<MutexMember> mutex_members;
  std::vector<FunctionLocks> functions;
};

/// Extracts the lock structure of one file: mutex member declarations from
/// every class body, and per-function acquisition/call/blocking records with
/// held-set tracking (RAII guards scoped to their enclosing block, manual
/// lock()/unlock() pairs, unique_lock variables mapped to their mutex).
[[nodiscard]] FileLocks extract_locks(const srclint::SourceFile& f,
                                      const ContendConfig& cfg);

}  // namespace pasched::contend
