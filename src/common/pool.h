// Allocation-recycling primitives for the hot paths.
//
// The simulation substrate (event kernel, RPC layer, wire encoding) aims for
// zero steady-state heap allocation: after a short warm-up every per-event /
// per-message allocation is served from a free list instead of the global
// heap.  Two building blocks live here:
//
//   * BufferPool -- recycles Bytes buffers (wire payloads).  A released
//     buffer keeps its capacity, so a warm pool serves every encode without
//     touching the allocator.  One pool per Network; all nodes of a
//     simulation share it (the simulation is single-threaded).
//   * FramePool  -- per-thread size-class free lists for small objects made
//     and freed at event rate: coroutine frames (sim::Task promises
//     allocate through it; every remote read runs a Txn::read ->
//     acquire_copy -> quorum_fetch chain of three frames) and the Promise
//     shared state (sim/sync.h, one per RPC).  A warm pool serves them all
//     without touching the allocator.  Thread-local is the right scope:
//     sweeps parallelise across Simulators, one per thread, and a thread's
//     free lists survive across experiment points.
#pragma once

#include <array>
#include <cstddef>
#include <new>
#include <vector>

#include "common/bytes.h"

namespace qrdtm {

/// Recycles Bytes buffers.  acquire() returns an empty buffer that keeps the
/// capacity it had when released, so steady-state encode paths never grow.
class BufferPool {
 public:
  Bytes acquire(std::size_t reserve_hint = 0) {
    Bytes b;
    if (!free_.empty()) {
      b = std::move(free_.back());
      free_.pop_back();
      b.clear();
    }
    if (reserve_hint > b.capacity()) b.reserve(reserve_hint);
    return b;
  }

  /// Hand a buffer back.  Cheap to call with a moved-from or tiny buffer;
  /// those are dropped rather than pooled.
  void release(Bytes&& b) {
    if (b.capacity() == 0) return;
    if (free_.size() < kMaxPooled) {
      free_.push_back(std::move(b));
    }
  }

  std::size_t pooled() const { return free_.size(); }

 private:
  // Enough for every in-flight payload of a large cluster; beyond this,
  // buffers are simply freed.
  static constexpr std::size_t kMaxPooled = 1024;
  std::vector<Bytes> free_;
};

/// Under AddressSanitizer the frame free list is compiled out: a recycled
/// frame would hide a use of a destroyed (aborted-body) frame from ASan,
/// which only poisons memory that really goes back to operator delete.  The
/// test matches tests/alloc_counter.h.
#if defined(__SANITIZE_ADDRESS__)
#define QRDTM_FRAME_POOL_DISABLED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define QRDTM_FRAME_POOL_DISABLED 1
#endif
#endif
#ifndef QRDTM_FRAME_POOL_DISABLED
#define QRDTM_FRAME_POOL_DISABLED 0
#endif

/// Recycles coroutine frames (and the Promise shared state) through
/// per-thread intrusive free lists, one per 16-byte size class up to
/// kMaxBytes (larger blocks use the heap).  A freed block stores the list
/// link in its own first word, so neither allocate nor release ever
/// allocates.  Blocks come from plain `::operator new(class size)`, so they
/// carry the default new alignment, which is all a coroutine frame asks of
/// a promise's operator new.
class FramePool {
 public:
  static void* allocate(std::size_t n) {
#if !QRDTM_FRAME_POOL_DISABLED
    if (n <= kMaxBytes) {
      State& s = state();
      const std::size_t c = size_class(n);
      if (Link* head = s.heads[c]) {
        s.heads[c] = head->next;
        return head;
      }
      arm_reaper();  // this block may come back to the pool
      return ::operator new(class_bytes(c));
    }
#endif
    return ::operator new(n);
  }

  static void release(void* p, [[maybe_unused]] std::size_t n) noexcept {
#if !QRDTM_FRAME_POOL_DISABLED
    if (n <= kMaxBytes) {
      State& s = state();
      if (!s.torn_down) {
        const std::size_t c = size_class(n);
        s.heads[c] = ::new (p) Link{s.heads[c]};
        return;
      }
    }
#endif
    ::operator delete(p);
  }

 private:
  static constexpr std::size_t kGranule = 16;
  static constexpr std::size_t kMaxBytes = 4096;
  static constexpr std::size_t kClasses = kMaxBytes / kGranule;

  struct Link {
    Link* next;
  };
  // Trivially destructible, so a frame freed during thread teardown (after
  // the Reaper below ran) still finds valid state and goes to the heap.
  struct State {
    std::array<Link*, kClasses> heads{};
    bool torn_down = false;
  };
  // Hands every pooled block back to operator delete at thread exit, or
  // LeakSanitizer-style accounting would count them as leaks.
  struct Reaper {
    ~Reaper() {
      State& s = state();
      for (Link*& head : s.heads) {
        while (head != nullptr) {
          Link* next = head->next;
          ::operator delete(head);
          head = next;
        }
      }
      s.torn_down = true;
    }
  };

  static std::size_t size_class(std::size_t n) {
    return n == 0 ? 0 : (n - 1) / kGranule;
  }
  static std::size_t class_bytes(std::size_t c) { return (c + 1) * kGranule; }

  // Constant-initialised: the hot paths read it without a TLS init guard.
  static State& state() {
    static thread_local State s;
    return s;
  }
  static void arm_reaper() {
    static thread_local Reaper reaper;
    (void)reaper;
  }
};

}  // namespace qrdtm
