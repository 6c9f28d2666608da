#include "analysis/hb.hpp"

#include <algorithm>
#include <deque>
#include <unordered_map>

namespace pasched::analysis {

namespace {

std::int64_t thread_key(const trace::Event& e) {
  return (static_cast<std::int64_t>(e.node) << 32) |
         static_cast<std::uint32_t>(e.tid);
}

bool has_thread(const trace::Event& e) {
  return e.kind != trace::EventKind::Idle && e.tid != 0;
}

}  // namespace

HbGraph HbGraph::build(std::vector<trace::Event> events) {
  HbGraph g;
  g.events_ = std::move(events);
  const std::size_t n = g.events_.size();
  g.thread_of_.assign(n, -1);
  g.clocks_.assign(n, {});

  std::unordered_map<std::int64_t, int> thread_index;
  for (std::size_t i = 0; i < n; ++i) {
    if (!has_thread(g.events_[i])) continue;
    g.thread_of_[i] =
        thread_index
            .try_emplace(thread_key(g.events_[i]),
                         static_cast<int>(thread_index.size()))
            .first->second;
  }
  g.num_threads_ = static_cast<int>(thread_index.size());

  const auto t = static_cast<std::size_t>(g.num_threads_);
  std::vector<std::vector<std::uint32_t>> cur(
      t, std::vector<std::uint32_t>(t, 0));
  // FIFO of MsgSend event indices per msg_id, matching mpi::Task's
  // per-(src,tag) queues.
  std::unordered_map<std::uint64_t, std::deque<std::size_t>> in_flight;

  for (std::size_t i = 0; i < n; ++i) {
    const trace::Event& e = g.events_[i];
    const int ti = g.thread_of_[i];
    if (ti < 0) continue;
    std::vector<std::uint32_t>& clock = cur[static_cast<std::size_t>(ti)];

    if (e.kind == trace::EventKind::MsgRecv) {
      const auto it = in_flight.find(e.msg_id);
      if (it != in_flight.end() && !it->second.empty()) {
        const std::vector<std::uint32_t>& sent = g.clocks_[it->second.front()];
        it->second.pop_front();
        for (std::size_t k = 0; k < t; ++k)
          clock[k] = std::max(clock[k], sent[k]);
      }
    }

    ++clock[static_cast<std::size_t>(ti)];
    g.clocks_[i] = clock;

    if (e.kind == trace::EventKind::MsgSend) in_flight[e.msg_id].push_back(i);
  }
  return g;
}

bool HbGraph::happens_before(std::size_t a, std::size_t b) const {
  if (a == b) return false;
  const int ta = thread_of_[a];
  if (ta < 0 || thread_of_[b] < 0) return false;
  const auto k = static_cast<std::size_t>(ta);
  return clocks_[a][k] <= clocks_[b][k];
}

bool HbGraph::concurrent(std::size_t a, std::size_t b) const {
  if (thread_of_[a] < 0 || thread_of_[b] < 0) return false;
  return a != b && !happens_before(a, b) && !happens_before(b, a);
}

}  // namespace pasched::analysis
