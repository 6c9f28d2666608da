// Instrumented synchronization seams. SeamMutex and SeamBarrier are the
// drop-in std::mutex / std::barrier the partitioned core uses at its
// serialization points (ShardedEngine inbox posts, wrapup registration, the
// window barrier). Under -DPASCHED_VALIDATE=ON each operation notifies the
// installed SeamObserver (contend::Ledger) with per-site wait and hold
// times so the contention ledger can rank serialization sites; under
// -DPASCHED_VALIDATE=OFF both types forward straight to the std primitive —
// no observer test, no clock read, no extra state.
//
// Sites are registered by name ("Inbox.mu", "ShardedEngine.window_barrier");
// instances sharing a name aggregate into one ledger row, which is what a
// per-shard array of inbox mutexes wants. The name convention is
// "Class.member" so the static analyzer's PSL505 serialization claims join
// the runtime rows directly.
#pragma once

#include <barrier>
#include <chrono>
#include <cstdint>
#include <mutex>

namespace pasched::util {

enum class SeamKind : std::uint8_t { Mutex, Barrier, Wait };

/// Fixed capacity of the site registry: observer slots index by site id
/// without allocation or locking on the hot path.
inline constexpr int kMaxSeamSites = 64;

/// Contention event sink. Implementations must be thread-safe: callbacks
/// arrive concurrently from every shard worker. on_acquire/on_release run
/// with the site's mutex held, so per-site work must stay tiny.
class SeamObserver {
 public:
  virtual ~SeamObserver() = default;
  /// The calling thread acquired `site`. `wait_ns` is the time it blocked
  /// first (0 when the fast path took the lock uncontended).
  virtual void on_acquire(int site, std::uint64_t wait_ns,
                          bool contended) noexcept = 0;
  /// The calling thread released `site` after holding it `hold_ns`.
  virtual void on_release(int site, std::uint64_t hold_ns) noexcept = 0;
  /// The calling thread spent `wait_ns` parked at barrier `site`.
  virtual void on_barrier_wait(int site, std::uint64_t wait_ns) noexcept = 0;
  /// The calling thread spent `wait_ns` in a point-to-point spin wait at
  /// `site` (SeamKind::Wait — the partitioned core's horizon waits on
  /// peer workers' progress). Deliberately *not* pure: wait sites postdate the mutex/barrier
  /// hooks, and the default keeps older observers source-compatible.
  /// Ledger implementations should price these in total wait but not as
  /// barrier time — a horizon spin is pairwise, not global, serialization.
  virtual void on_wait(int /*site*/, std::uint64_t /*wait_ns*/) noexcept {}
};

/// Registers (or finds) the site named `name`; idempotent by name, capped
/// at kMaxSeamSites (overflow returns the last slot). Cold path.
int register_seam_site(const char* name, SeamKind kind);
[[nodiscard]] const char* seam_site_name(int site);
[[nodiscard]] SeamKind seam_site_kind(int site);
[[nodiscard]] int seam_site_count();

/// Installs the process-wide observer (nullptr to clear). Install/clear
/// only while no instrumented seam is in motion (before run_until / after
/// it returns).
void install_seam_observer(SeamObserver* obs) noexcept;
[[nodiscard]] SeamObserver* seam_observer() noexcept;

namespace detail {
[[nodiscard]] inline std::uint64_t seam_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace detail

#if PASCHED_VALIDATE_ENABLED

/// std::mutex with per-site contention accounting (Lockable).
class SeamMutex {
 public:
  explicit SeamMutex(int site) noexcept : site_(site) {}
  SeamMutex(const SeamMutex&) = delete;
  SeamMutex& operator=(const SeamMutex&) = delete;

  void lock() {
    SeamObserver* obs = seam_observer();
    if (obs == nullptr) {
      mu_.lock();
      acquired_ns_ = 0;
      return;
    }
    if (mu_.try_lock()) {
      acquired_ns_ = detail::seam_now_ns();
      obs->on_acquire(site_, 0, /*contended=*/false);
      return;
    }
    const std::uint64_t t0 = detail::seam_now_ns();
    mu_.lock();
    acquired_ns_ = detail::seam_now_ns();
    obs->on_acquire(site_, acquired_ns_ - t0, /*contended=*/true);
  }

  bool try_lock() {
    if (!mu_.try_lock()) return false;
    SeamObserver* obs = seam_observer();
    if (obs == nullptr) {
      acquired_ns_ = 0;
    } else {
      acquired_ns_ = detail::seam_now_ns();
      obs->on_acquire(site_, 0, /*contended=*/false);
    }
    return true;
  }

  void unlock() {
    SeamObserver* obs = seam_observer();
    if (obs != nullptr && acquired_ns_ != 0)
      obs->on_release(site_, detail::seam_now_ns() - acquired_ns_);
    acquired_ns_ = 0;
    mu_.unlock();
  }

 private:
  std::mutex mu_;
  std::uint64_t acquired_ns_ = 0;  // guarded by mu_
  int site_;
};

/// std::barrier with per-site park-time accounting.
template <class Completion>
class SeamBarrier {
 public:
  SeamBarrier(int site, std::ptrdiff_t expected, Completion fn)
      : bar_(expected, std::move(fn)), site_(site) {}
  SeamBarrier(const SeamBarrier&) = delete;
  SeamBarrier& operator=(const SeamBarrier&) = delete;

  void arrive_and_wait() {
    SeamObserver* obs = seam_observer();
    if (obs == nullptr) {
      bar_.arrive_and_wait();
      return;
    }
    const std::uint64_t t0 = detail::seam_now_ns();
    bar_.arrive_and_wait();
    obs->on_barrier_wait(site_, detail::seam_now_ns() - t0);
  }

  void arrive_and_drop() { bar_.arrive_and_drop(); }

 private:
  std::barrier<Completion> bar_;
  int site_;
};

#else  // !PASCHED_VALIDATE_ENABLED

/// Release builds: a plain std::mutex behind the same constructor shape.
/// The site id is discarded and no per-op instrumentation exists — the
/// "SeamMutex compiles away" contract micro_engine's baseline holds the
/// partitioned core to.
class SeamMutex {
 public:
  explicit SeamMutex(int /*site*/) noexcept {}
  SeamMutex(const SeamMutex&) = delete;
  SeamMutex& operator=(const SeamMutex&) = delete;

  void lock() { mu_.lock(); }
  bool try_lock() { return mu_.try_lock(); }
  void unlock() { mu_.unlock(); }

 private:
  std::mutex mu_;
};

static_assert(sizeof(SeamMutex) == sizeof(std::mutex),
              "release-mode SeamMutex must add no state to std::mutex");

template <class Completion>
class SeamBarrier {
 public:
  SeamBarrier(int /*site*/, std::ptrdiff_t expected, Completion fn)
      : bar_(expected, std::move(fn)) {}
  SeamBarrier(const SeamBarrier&) = delete;
  SeamBarrier& operator=(const SeamBarrier&) = delete;

  void arrive_and_wait() { bar_.arrive_and_wait(); }
  void arrive_and_drop() { bar_.arrive_and_drop(); }

 private:
  std::barrier<Completion> bar_;
};

#endif  // PASCHED_VALIDATE_ENABLED

}  // namespace pasched::util
