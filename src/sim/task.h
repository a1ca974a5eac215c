// sim::Task<T> -- the coroutine type for simulated processes.
//
// A Task is lazy: nothing runs until it is co_awaited (or handed to
// Simulator::spawn).  When a child task completes, control transfers back to
// the awaiting coroutine via symmetric transfer, so arbitrarily deep
// co_await chains use O(1) native stack.  Exceptions thrown inside a task
// propagate to the awaiter at the co_await expression (genuine errors only:
// protocol aborts do not throw, see core/txn.h).
//
// Tasks are move-only owners of their coroutine frame (RAII: the frame is
// destroyed when the Task handle dies, unless the frame already completed
// and was detached by Simulator::spawn's driver).  Destroying a suspended
// frame destroys the child Task it awaits, and so on down the chain: the
// transaction runtime cancels an aborted scope's body this way.
//
// Frames are recycled: the promise's class operator new/delete go through
// FramePool's per-thread size-class free lists (common/pool.h), so a warm
// co_await chain allocates nothing.  Under AddressSanitizer the pool is
// compiled out and every frame goes back to the heap, where ASan sees a
// use of a destroyed frame.
#pragma once

#include <coroutine>
#include <cstddef>
#include <exception>
#include <utility>
#include <variant>

#include "common/check.h"
#include "common/pool.h"

namespace qrdtm::sim {

template <class T>
class Task;

namespace detail {

struct PromiseBase {
  std::coroutine_handle<> continuation;  // who co_awaits us (may be null)
  std::exception_ptr exception;

  static void* operator new(std::size_t n) { return FramePool::allocate(n); }
  static void operator delete(void* p, std::size_t n) noexcept {
    FramePool::release(p, n);
  }

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <class P>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<P> h) noexcept {
      // Resume the awaiter (symmetric transfer); if nobody awaits us we are
      // a detached driver and just stop here (the driver frees itself).
      auto cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  void unhandled_exception() { exception = std::current_exception(); }
};

}  // namespace detail

/// Awaitable yielding the awaiting coroutine's own handle without suspending
/// it (await_suspend returns false, so the coroutine resumes in place).
struct CurrentHandle {
  std::coroutine_handle<> handle;
  bool await_ready() const noexcept { return false; }
  bool await_suspend(std::coroutine_handle<> h) noexcept {
    handle = h;
    return false;
  }
  std::coroutine_handle<> await_resume() const noexcept { return handle; }
};

/// Coroutine task producing a value of type T (or void).
template <class T = void>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseBase {
    std::variant<std::monostate, T> value;

    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    template <class U>
    void return_value(U&& v) {
      value.template emplace<1>(std::forward<U>(v));
    }
  };

  Task() = default;
  Task(Task&& o) noexcept : h_(std::exchange(o.h_, nullptr)) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      destroy();
      h_ = std::exchange(o.h_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const { return h_ != nullptr; }

  /// Awaiting a task starts it and suspends the awaiter until completion.
  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> h;
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> awaiting) noexcept {
        h.promise().continuation = awaiting;
        return h;  // start the child
      }
      T await_resume() {
        if (h.promise().exception) {
          std::rethrow_exception(h.promise().exception);
        }
        return std::move(std::get<1>(h.promise().value));
      }
    };
    QRDTM_CHECK_MSG(h_ != nullptr, "co_await on empty Task");
    return Awaiter{h_};
  }

  /// Internal: release ownership of the frame (used by Simulator::spawn).
  std::coroutine_handle<promise_type> release() {
    return std::exchange(h_, nullptr);
  }

 private:
  explicit Task(std::coroutine_handle<promise_type> h) : h_(h) {}
  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = nullptr;
    }
  }
  std::coroutine_handle<promise_type> h_{};
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : detail::PromiseBase {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_void() {}
  };

  Task() = default;
  Task(Task&& o) noexcept : h_(std::exchange(o.h_, nullptr)) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      destroy();
      h_ = std::exchange(o.h_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const { return h_ != nullptr; }

  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> h;
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> awaiting) noexcept {
        h.promise().continuation = awaiting;
        return h;
      }
      void await_resume() {
        if (h.promise().exception) {
          std::rethrow_exception(h.promise().exception);
        }
      }
    };
    QRDTM_CHECK_MSG(h_ != nullptr, "co_await on empty Task");
    return Awaiter{h_};
  }

  std::coroutine_handle<promise_type> release() {
    return std::exchange(h_, nullptr);
  }

 private:
  explicit Task(std::coroutine_handle<promise_type> h) : h_(h) {}
  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = nullptr;
    }
  }
  std::coroutine_handle<promise_type> h_{};
};

}  // namespace qrdtm::sim
