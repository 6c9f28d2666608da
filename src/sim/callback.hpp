// InlineCallback: a move-only callable wrapper with fixed inline storage and
// no heap allocation. The event queue processes tens of millions of events
// per benchmark run; std::function's allocation behavior is not guaranteed,
// so we pin the capture size at compile time instead.
//
// Trivial relocation: a capture that is trivially copyable and trivially
// destructible (pointers, ints, Times — every MPI message delivery) gets
// no destroy_/relocate_ thunk. A move then copies the whole buffer with one
// fixed-size memcpy instead of an indirect call, and reset() has nothing to
// run. A message callback moves about five times between Fabric::send and
// its dispatch (through ShardedEngine::post, Engine::schedule_delivery and
// schedule_at into the event slot, and out of the slot to run). Captures
// that own something (a shared_ptr, as in Job::submit_io) keep the thunks
// and are moved and destroyed exactly once per wrapper.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "util/assert.hpp"

namespace pasched::sim {

template <std::size_t Capacity = 48>
class InlineCallback {
 public:
  InlineCallback() = default;

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, InlineCallback> &&
             std::is_invocable_r_v<void, std::decay_t<F>>)
  InlineCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= Capacity,
                  "capture too large for InlineCallback storage");
    static_assert(alignof(Fn) <= alignof(std::max_align_t));
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "captures must be nothrow-movable");
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
    invoke_ = [](void* p) { (*static_cast<Fn*>(p))(); };
    if constexpr (!(std::is_trivially_copyable_v<Fn> &&
                    std::is_trivially_destructible_v<Fn>)) {
      destroy_ = [](void* p) { static_cast<Fn*>(p)->~Fn(); };
      relocate_ = [](void* dst, void* src) {
        ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
        static_cast<Fn*>(src)->~Fn();
      };
    }
  }

  InlineCallback(InlineCallback&& other) noexcept { move_from(other); }

  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;

  ~InlineCallback() { reset(); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return invoke_ != nullptr;
  }

  void operator()() {
    PASCHED_EXPECTS_MSG(invoke_ != nullptr, "invoking empty InlineCallback");
    invoke_(buf_);
  }

  void reset() noexcept {
    if (destroy_ != nullptr) destroy_(buf_);
    invoke_ = nullptr;
    destroy_ = nullptr;
    relocate_ = nullptr;
  }

 private:
  void move_from(InlineCallback& other) noexcept {
    invoke_ = other.invoke_;
    destroy_ = other.destroy_;
    relocate_ = other.relocate_;
    if (relocate_ != nullptr)
      relocate_(buf_, other.buf_);
    else  // a trivial capture, or an empty wrapper's unused bytes
      std::memcpy(buf_, other.buf_, Capacity);
    other.invoke_ = nullptr;
    other.destroy_ = nullptr;
    other.relocate_ = nullptr;
  }

  // Zeroed so the trivial path's whole-buffer memcpy never reads bytes a
  // small capture left unwritten.
  alignas(std::max_align_t) unsigned char buf_[Capacity]{};
  void (*invoke_)(void*) = nullptr;
  void (*destroy_)(void*) = nullptr;
  void (*relocate_)(void*, void*) = nullptr;
};

}  // namespace pasched::sim
