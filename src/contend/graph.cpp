#include "contend/graph.hpp"

#include <algorithm>
#include <functional>

namespace pasched::contend {

namespace {

[[nodiscard]] std::string last_component(const std::string& qualified) {
  const std::size_t pos = qualified.rfind("::");
  return pos == std::string::npos ? qualified : qualified.substr(pos + 2);
}

}  // namespace

LockGraph::LockGraph(const std::vector<FileLocks>& files) {
  // 1. Member-declaration map: "mu" -> "PairRing.mu". On a (rare) collision —
  // two classes declaring the same member name — the lexicographically
  // smallest canonical name wins, deterministically.
  for (const FileLocks& fl : files) {
    for (const MutexMember& m : fl.mutex_members) {
      const std::string canon = m.cls + "." + m.member;
      auto it = member_to_canonical_.find(m.member);
      if (it == member_to_canonical_.end() || canon < it->second)
        member_to_canonical_[m.member] = canon;
    }
  }

  // 2. Merge function records across TUs; keep per-function callee lists.
  std::map<std::string, std::set<std::string>> callees;
  for (const FileLocks& fl : files) {
    for (const FunctionLocks& fn : fl.functions) {
      FunctionSummary& s = functions_[fn.name];
      for (const Acquisition& a : fn.acquisitions)
        s.acquires.insert(canonical(a.mutex, fl.path));
      if (!fn.blocking.empty()) s.blocks_direct = true;
      for (const CallSite& c : fn.calls) callees[fn.name].insert(c.callee);
    }
  }
  for (auto& [name, s] : functions_) {
    s.acquires_closed = s.acquires;
    s.blocks_closed = s.blocks_direct;
  }

  // Unqualified-callee resolution index: "post" matches both "post" and
  // "ShardedEngine::post".
  std::map<std::string, std::vector<std::string>> by_last;
  for (const auto& [name, s] : functions_)
    by_last[last_component(name)].push_back(name);

  // 3. Close acquired locksets / blocking-ness over the call graph.
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto& [name, s] : functions_) {
      const auto cit = callees.find(name);
      if (cit == callees.end()) continue;
      for (const std::string& callee : cit->second) {
        const auto bit = by_last.find(callee);
        if (bit == by_last.end()) continue;
        for (const std::string& target : bit->second) {
          if (target == name) continue;
          const FunctionSummary& ts = functions_.at(target);
          for (const std::string& m : ts.acquires_closed)
            if (s.acquires_closed.insert(m).second) changed = true;
          if (ts.blocks_closed && !s.blocks_closed) {
            s.blocks_closed = true;
            changed = true;
          }
        }
      }
    }
  }

  // 4. Edges and blocking violations.
  for (const FileLocks& fl : files) {
    for (const FunctionLocks& fn : fl.functions) {
      for (const Acquisition& a : fn.acquisitions) {
        const std::string to = canonical(a.mutex, fl.path);
        for (const std::string& h : a.held)
          add_edge(canonical(h, fl.path), to, fl.path, a.line);
      }
      for (const BlockingUse& b : fn.blocking) {
        for (const std::string& h : b.held)
          blocking_.push_back(BlockingViolation{canonical(h, fl.path),
                                                b.what, fl.path, b.line,
                                                false});
      }
      for (const CallSite& c : fn.calls) {
        if (c.held.empty()) continue;
        const auto bit = by_last.find(c.callee);
        if (bit == by_last.end()) continue;
        bool blocks = false;
        std::set<std::string> callee_acquires;
        for (const std::string& target : bit->second) {
          if (target == fn.name) continue;
          const FunctionSummary& ts = functions_.at(target);
          blocks = blocks || ts.blocks_closed;
          callee_acquires.insert(ts.acquires_closed.begin(),
                                 ts.acquires_closed.end());
        }
        for (const std::string& h : c.held) {
          const std::string hc = canonical(h, fl.path);
          for (const std::string& m : callee_acquires)
            add_edge(hc, m, fl.path, c.line);
          if (blocks)
            blocking_.push_back(BlockingViolation{
                hc, "call to `" + c.callee + "` (reaches a blocking seam)",
                fl.path, c.line, true});
        }
      }
    }
  }
}

std::string LockGraph::canonical(const std::string& name,
                                 const std::string& path) const {
  const auto it = member_to_canonical_.find(name);
  if (it != member_to_canonical_.end()) return it->second;
  return path + ":" + name;
}

void LockGraph::add_edge(const std::string& from, const std::string& to,
                         const std::string& file, int line) {
  if (from.empty() || to.empty()) return;
  // Self-edges are artifacts of the flat (control-flow-blind) lockset
  // model — a try_lock fast path followed by the blocking slow path reads
  // as re-acquisition. Genuine double-lock deadlocks need path-sensitive
  // analysis this frontend does not claim to have.
  if (from == to) return;
  for (const std::size_t ei : adj_[from])
    if (edges_[ei].to == to) return;  // first witness wins
  nodes_.insert(from);
  nodes_.insert(to);
  adj_[from].insert(edges_.size());
  edges_.push_back(LockEdge{from, to, file, line});
}

std::vector<std::string> LockGraph::edge_lines() const {
  std::vector<std::string> out;
  out.reserve(edges_.size());
  for (const LockEdge& e : edges_)
    out.push_back(e.from + " -> " + e.to + " @ " + e.file + ":" +
                  std::to_string(e.line));
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<LockCycle> LockGraph::cycles() const {
  std::vector<LockCycle> out;
  std::set<std::string> seen_keys;
  std::map<std::string, int> color;  // 0 white, 1 gray, 2 black
  std::vector<std::pair<std::string, std::size_t>> path;  // node, in-edge

  std::function<void(const std::string&)> dfs = [&](const std::string& u) {
    color[u] = 1;
    const auto ait = adj_.find(u);
    if (ait != adj_.end()) {
      // Deterministic order: adj_ sets hold edge indices in insertion
      // order of a std::set<size_t> — ascending, stable across runs.
      for (const std::size_t ei : ait->second) {
        if (out.size() >= 8) break;
        const LockEdge& e = edges_[ei];
        const int c = color[e.to];
        if (c == 1) {
          // Back edge: the cycle is path[v..] plus this edge.
          LockCycle cyc;
          bool collecting = false;
          for (const auto& [node, in_edge] : path) {
            if (node == e.to) collecting = true;
            if (collecting) {
              cyc.nodes.push_back(node);
              if (node != e.to) cyc.edges.push_back(edges_[in_edge]);
            }
          }
          if (cyc.nodes.empty()) cyc.nodes.push_back(e.to);  // self-loop
          cyc.edges.push_back(e);
          std::vector<std::string> key_nodes = cyc.nodes;
          std::sort(key_nodes.begin(), key_nodes.end());
          std::string key;
          for (const std::string& n : key_nodes) key += n + "|";
          if (seen_keys.insert(key).second) out.push_back(std::move(cyc));
        } else if (c == 0) {
          path.emplace_back(e.to, ei);
          dfs(e.to);
          path.pop_back();
        }
      }
    }
    color[u] = 2;
  };

  for (const std::string& n : nodes_) {
    if (color[n] != 0) continue;
    path.emplace_back(n, std::size_t{0});
    dfs(n);
    path.pop_back();
    if (out.size() >= 8) break;
  }
  return out;
}

}  // namespace pasched::contend
