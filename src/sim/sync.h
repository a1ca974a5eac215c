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
#include <memory>
#include <optional>
#include <utility>

#include "common/check.h"
#include "common/pool.h"
#include "sim/simulator.h"

namespace qrdtm::sim {

template <class T>
class Future;

namespace detail {

template <class T>
struct SharedState {
  Simulator* sim;
  std::optional<T> value;
  std::coroutine_handle<> waiter;
  bool consumed = false;

  void fulfil(T v) {
    QRDTM_CHECK_MSG(!value.has_value(), "promise fulfilled twice");
    value = std::move(v);
    if (waiter) {
      auto h = std::exchange(waiter, nullptr);
      sim->schedule_after(0, [h] { h.resume(); });
    }
  }
};

}  // namespace detail

template <class T>
class Promise {
 public:
  // allocate_shared with a PoolAllocator: the control block + state (one
  // per RPC on the hot path) is recycled through a free list instead of
  // hitting the heap per call.
  explicit Promise(Simulator& sim)
      : state_(std::allocate_shared<detail::SharedState<T>>(
            PoolAllocator<detail::SharedState<T>>{})) {
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
  std::shared_ptr<detail::SharedState<T>> state_;
};

template <class T>
class Future {
 public:
  Future() = default;

  bool valid() const { return state_ != nullptr; }
  bool ready() const { return state_ && state_->value.has_value(); }

  auto operator co_await() {
    struct Awaiter {
      std::shared_ptr<detail::SharedState<T>> s;
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
    QRDTM_CHECK_MSG(state_ != nullptr, "await on empty future");
    return Awaiter{state_};
  }

 private:
  friend class Promise<T>;
  explicit Future(std::shared_ptr<detail::SharedState<T>> s)
      : state_(std::move(s)) {}
  std::shared_ptr<detail::SharedState<T>> state_;
};

}  // namespace qrdtm::sim
