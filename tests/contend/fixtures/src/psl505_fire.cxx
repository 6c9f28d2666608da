// Planted PSL505: a coarse mutex guarding state whose race::Owned tag
// already proves single-domain ownership — the lock is wider than the
// ownership scope. The WARN names the site as "Queue.qmu_", the graph
// node the lock-order rules use for the same member.
#include <mutex>

namespace race {
template <class T>
struct Owned {
  T v{};
};
}  // namespace race

struct Queue {
  race::Owned<int> head_;
  std::mutex qmu_;
};
