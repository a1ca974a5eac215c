// Synchronisation primitives for simulated processes.
//
//   * Promise<T>/Future<T> -- one-shot value channel.  The consumer
//     co_awaits the Future; the producer (usually a network-delivery event)
//     fulfils the Promise.  Resumption is routed through the event queue at
//     the current tick so wakeup ordering is deterministic and recursion
//     depth stays bounded.
//
// These are single-threaded (one Simulator); they synchronise
// *simulated* concurrency, not OS threads.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>

#include "common/check.h"
#include "common/pool.h"
#include "sim/simulator.h"

namespace qrdtm::sim {

template <class T>
class Future;

namespace detail {

/// The state a Promise and its Future share.  One is made per RPC, so it
/// comes from FramePool's per-thread free lists (common/pool.h) and counts
/// its two holders with a plain integer: a warm call allocates nothing and
/// does no atomic refcount traffic.
template <class T>
struct SharedState {
  Simulator* sim = nullptr;
  std::optional<T> value;
  std::coroutine_handle<> waiter;
  bool consumed = false;
  std::uint32_t refs = 1;

  static void* operator new(std::size_t n) { return FramePool::allocate(n); }
  static void operator delete(void* p, std::size_t n) noexcept {
    FramePool::release(p, n);
  }

  void fulfil(T v) {
    QRDTM_CHECK_MSG(!value.has_value(), "promise fulfilled twice");
    value = std::move(v);
    if (waiter) {
      auto h = std::exchange(waiter, nullptr);
      sim->schedule_after(0, [h] { h.resume(); });
    }
  }
};

/// A counted handle on a SharedState; the last one deletes it.
template <class T>
class StateRef {
 public:
  StateRef() = default;
  /// Adopts a new state's initial reference.
  explicit StateRef(SharedState<T>* s) : s_(s) {}
  StateRef(const StateRef& other) : s_(other.s_) {
    if (s_ != nullptr) ++s_->refs;
  }
  StateRef(StateRef&& other) noexcept : s_(std::exchange(other.s_, nullptr)) {}
  StateRef& operator=(StateRef other) noexcept {
    std::swap(s_, other.s_);
    return *this;
  }
  ~StateRef() {
    if (s_ != nullptr && --s_->refs == 0) delete s_;
  }

  SharedState<T>* operator->() const { return s_; }
  explicit operator bool() const { return s_ != nullptr; }

 private:
  SharedState<T>* s_ = nullptr;
};

}  // namespace detail

template <class T>
class Promise {
 public:
  explicit Promise(Simulator& sim)
      // Pooled (SharedState's class operator new).
      // qrdtm-lint: allow(hot-naked-new)
      : state_(new detail::SharedState<T>()) {
    state_->sim = &sim;
  }

  Future<T> future() const { return Future<T>(state_); }

  void set(T value) { state_->fulfil(std::move(value)); }

  /// Fulfil unless already fulfilled; returns whether this call won.  Used
  /// to race a response against its timeout.
  bool try_set(T value) {
    if (state_->value.has_value()) return false;
    state_->fulfil(std::move(value));
    return true;
  }

  bool fulfilled() const { return state_->value.has_value(); }

 private:
  detail::StateRef<T> state_;
};

template <class T>
class Future {
 public:
  Future() = default;

  bool valid() const { return static_cast<bool>(state_); }
  bool ready() const { return state_ && state_->value.has_value(); }

  auto operator co_await() {
    struct Awaiter {
      detail::StateRef<T> s;
      bool await_ready() const { return s->value.has_value(); }
      void await_suspend(std::coroutine_handle<> h) {
        QRDTM_CHECK_MSG(!s->waiter, "future awaited by two processes");
        s->waiter = h;
      }
      T await_resume() {
        QRDTM_CHECK_MSG(!s->consumed, "future consumed twice");
        s->consumed = true;
        return std::move(*s->value);
      }
    };
    QRDTM_CHECK_MSG(static_cast<bool>(state_), "await on empty future");
    return Awaiter{state_};
  }

 private:
  friend class Promise<T>;
  explicit Future(detail::StateRef<T> s) : state_(std::move(s)) {}
  detail::StateRef<T> state_;
};

}  // namespace qrdtm::sim
