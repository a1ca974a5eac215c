// Deterministic discrete-event simulation kernel.
//
// The Simulator owns a time-ordered event queue.  Simulated processes are
// sim::Task coroutines spawned onto the simulator; they advance simulated
// time only by awaiting kernel awaitables (delay, futures fulfilled by
// events).  Determinism guarantees:
//   * ties in event time are broken by insertion sequence number,
//   * all randomness comes from seeded Rng streams,
//   * the kernel itself is single-threaded (one Simulator per experiment
//    point; sweeps parallelise across Simulators, never within one).
//
// Hot-path design (see DESIGN.md "Performance architecture"): events live in
// a free-listed pool of stable slots, each holding a small-buffer-optimised
// callable (coroutine resumes and timer lambdas -- ~all events -- fit
// inline, so scheduling and firing performs no heap allocation in steady
// state).  The ready queue is a 4-ary min-heap of packed (tick, seq, slot)
// keys, plus a FIFO lane beside it for fixed-delay timers, whose deadlines
// arrive already in order.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"

namespace qrdtm::sim {

/// Simulated time in nanoseconds.
using Tick = std::uint64_t;

constexpr Tick kNever = ~Tick{0};

constexpr Tick usec(double x) { return static_cast<Tick>(x * 1e3); }
constexpr Tick msec(double x) { return static_cast<Tick>(x * 1e6); }
constexpr Tick sec(double x) { return static_cast<Tick>(x * 1e9); }
constexpr double to_seconds(Tick t) { return static_cast<double>(t) * 1e-9; }

template <class T>
class Task;

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator();

  Tick now() const { return now_; }

  /// Schedule `fn` at absolute simulated time `at` (>= now).  Callables up
  /// to kInlineBytes are stored inline in a pooled event slot (no heap
  /// allocation); larger ones fall back to a heap box.
  template <class F>
  void schedule_at(Tick at, F&& fn) {
    heap_push(make_entry(at, std::forward<F>(fn)));
  }

  /// Schedule `fn` after a relative delay.
  template <class F>
  void schedule_after(Tick delay, F&& fn) {
    schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Schedule `fn` after `delay` through the FIFO timer lane.  Meant for
  /// fixed-delay timers (RPC timeouts): their deadlines arrive in order, so
  /// the lane takes them with an O(1) append instead of a heap sift.  The
  /// firing order is exactly schedule_after's: an entry that would fire
  /// before the lane's tail goes to the heap, and drain pops whichever of
  /// the heap top and the lane front comes first in (at, seq) order.
  template <class F>
  void schedule_timer_after(Tick delay, F&& fn) {
    const HeapEntry e = make_entry(now_ + delay, std::forward<F>(fn));
    if (lane_size_ == 0 || !e.before(lane_at(lane_size_ - 1))) {
      lane_push(e);
    } else {
      heap_push(e);
    }
  }

  /// Start a detached simulated process.  The process begins executing
  /// immediately (until its first suspension).  An exception escaping the
  /// process aborts the simulation: Simulator::run rethrows it.
  void spawn(Task<void> task);

  /// Run until the event queue drains.  Returns final simulated time.
  Tick run();

  /// Run until simulated time reaches `deadline` (events at == deadline are
  /// executed) or the queue drains, whichever is first.  Marks the
  /// simulation as stopping so long-lived processes wind down.
  Tick run_until(Tick deadline);

  /// Like run_until but WITHOUT marking the simulation as stopping: use it
  /// to sample state mid-run (e.g. between injected failures) while
  /// closed-loop clients keep issuing work.
  Tick advance_to(Tick deadline);

  /// Ask long-lived processes to wind down (also set by run_until).
  void request_stop() { stopping_ = true; }

  /// True once run_until passed its deadline (or request_stop was called);
  /// long-lived processes poll this to wind down.
  bool stopping() const { return stopping_; }

  std::uint64_t events_executed() const { return events_executed_; }

  /// Awaitable: suspend the current process for `delay` simulated time.
  auto delay(Tick d) {
    struct Awaiter {
      Simulator* sim;
      Tick d;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        sim->schedule_after(d, [h] { h.resume(); });
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, d};
  }

 private:
  /// Inline storage for event callables.  Sized for the largest hot-path
  /// capture: the network delivery closure (Network* + a full Message with
  /// its payload vector and trace context, 64 bytes on LP64 -- an exact
  /// fit, so growing Message again would spill deliveries to the heap and
  /// trip the AllocRegression tests).
  static constexpr std::size_t kInlineBytes = 64;

  // The ordering key (at, seq) lives in the HeapEntry, not here: a slot
  // only stores the callable and its dispatch/teardown thunks.
  struct Event {
    void (*run)(Event&) = nullptr;      // move out, destroy slot copy, invoke
    void (*discard)(Event&) = nullptr;  // destroy without invoking
    alignas(std::max_align_t) unsigned char buf[kInlineBytes];
  };
  // The inline buffer must hold at least a boxed pointer (the oversized
  // fallback stores a Fn* in it) and be max-aligned so any hot-path callable
  // can be placement-constructed without adjustment.
  static_assert(kInlineBytes >= sizeof(void*));
  static_assert(alignof(Event) >= alignof(std::max_align_t));
  static_assert(sizeof(Event::buf) == kInlineBytes);

  // Slots are chunked so they never move: a pool grow allocates a new chunk
  // without relocating live callables.
  static constexpr std::size_t kChunkSize = 256;
  // Heap arity 4: shallower sifts than a binary heap and index-only moves.
  static constexpr std::size_t kHeapArity = 4;

  Event& event(std::uint32_t idx) {
    return chunks_[idx / kChunkSize][idx % kChunkSize];
  }

  // Heap entries carry the ordering key inline so sift comparisons never
  // dereference the event pool (pure in-array compares, no pointer chasing).
  // seq and slot index share one word -- the entry is 16 bytes and passes in
  // registers -- and because seq occupies the high bits, comparing the packed
  // word IS the seq tie-break (seq is unique per event).  24 index bits bound
  // the pool at 16.7M in-flight events and 40 seq bits at ~1.1e12 events per
  // Simulator; both are checked and far beyond any experiment in this repo.
  static constexpr unsigned kIdxBits = 24;
  struct HeapEntry {
    Tick at;
    std::uint64_t seq_idx;  // (seq << kIdxBits) | slot index
    std::uint32_t idx() const {
      return static_cast<std::uint32_t>(seq_idx & ((1u << kIdxBits) - 1));
    }
    bool before(const HeapEntry& o) const {
      return at != o.at ? at < o.at : seq_idx < o.seq_idx;
    }
  };
  // The packed-entry bit math is only sound while the index mask fits an
  // unsigned (no shift past width) and seq has headroom in the high bits;
  // the 16-byte / 8-aligned layout is what keeps sift moves register-sized.
  static_assert(kIdxBits < 32, "index mask (1u << kIdxBits) must not overflow");
  static_assert(kIdxBits < 64, "seq must have high bits left");
  static_assert(sizeof(HeapEntry) == 16 && alignof(HeapEntry) == 8,
                "HeapEntry must stay two registers wide");
  static_assert(std::is_trivially_copyable_v<HeapEntry>);
  static_assert(kChunkSize > 0 &&
                    (std::size_t{1} << kIdxBits) % kChunkSize == 0,
                "chunks must tile the index space exactly");

  // Hot-path helpers are inline: schedule_at instantiates in every caller's
  // TU and must not pay an out-of-line call per event.  Only the cold pool
  // grow and the drain loop live in the .cpp.
  std::uint32_t alloc_event() {
    if (free_.empty()) grow_pool();
    const std::uint32_t idx = free_.back();
    free_.pop_back();
    return idx;
  }

  /// Store `fn` in a pooled slot and return its ordering key (the next
  /// sequence number at time `at`).
  template <class F>
  HeapEntry make_entry(Tick at, F&& fn) {
    QRDTM_CHECK_MSG(at >= now_, "cannot schedule into the past");
    QRDTM_CHECK_MSG(next_seq_ < (std::uint64_t{1} << (64 - kIdxBits)),
                    "event sequence space exhausted");
    using Fn = std::decay_t<F>;
    const std::uint32_t idx = alloc_event();
    Event& e = event(idx);
    const std::uint64_t seq = next_seq_++;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(e.buf)) Fn(std::forward<F>(fn));
      e.run = [](Event& ev) {
        Fn* p = std::launder(reinterpret_cast<Fn*>(ev.buf));
        Fn local(std::move(*p));
        p->~Fn();
        local();
      };
      e.discard = [](Event& ev) {
        std::launder(reinterpret_cast<Fn*>(ev.buf))->~Fn();
      };
    } else {
      // Oversized callable: boxed on the heap (rare; nothing in the
      // repository's hot paths takes this branch -- the AllocRegression
      // tests would catch one).  qrdtm-lint: allow(hot-naked-new)
      auto* boxed = new Fn(std::forward<F>(fn));
      ::new (static_cast<void*>(e.buf)) Fn*(boxed);
      e.run = [](Event& ev) {
        Fn* p = *std::launder(reinterpret_cast<Fn**>(ev.buf));
        Fn local(std::move(*p));
        delete p;
        local();
      };
      e.discard = [](Event& ev) {
        delete *std::launder(reinterpret_cast<Fn**>(ev.buf));
      };
    }
    return HeapEntry{at, (seq << kIdxBits) | idx};
  }

  /// The lane's i-th entry from its front (oldest first).
  HeapEntry& lane_at(std::size_t i) {
    return lane_[(lane_head_ + i) & (lane_.size() - 1)];
  }

  void lane_push(HeapEntry e) {
    if (lane_size_ == lane_.size()) grow_lane();
    lane_at(lane_size_) = e;
    ++lane_size_;
  }

  void heap_push(HeapEntry e) {
    std::size_t i = heap_.size();
    heap_.push_back(e);
    while (i > 0) {
      const std::size_t parent = (i - 1) / kHeapArity;
      if (!e.before(heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  void grow_pool();
  void grow_lane();
  HeapEntry heap_pop_min();
  void drain(Tick deadline);

  // Detached-process registry (SpawnDriver).  Each spawned driver frame
  // records itself here and clears its slot on normal completion; the
  // destructor destroys whatever is still registered so processes suspended
  // mid-await when the experiment ends do not leak their frames (and
  // everything those frames transitively own: nested Task frames, promise
  // states, wire buffers).
  std::size_t register_driver(std::coroutine_handle<> h);
  void unregister_driver(std::size_t slot);

  Tick now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_executed_ = 0;
  bool stopping_ = false;
  std::exception_ptr failure_;
  std::vector<std::unique_ptr<Event[]>> chunks_;
  std::vector<std::uint32_t> free_;
  std::vector<HeapEntry> heap_;
  // FIFO timer lane: a ring buffer over lane_ (power-of-two size), holding
  // lane_size_ entries from lane_head_ in ascending (at, seq) order.
  std::vector<HeapEntry> lane_;
  std::size_t lane_head_ = 0;
  std::size_t lane_size_ = 0;
  std::vector<std::coroutine_handle<>> drivers_;  // null = slot free
  std::vector<std::size_t> driver_free_;

  friend struct SpawnDriver;
};

}  // namespace qrdtm::sim
