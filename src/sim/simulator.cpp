#include "sim/simulator.h"

#include <exception>

#include "sim/task.h"

namespace qrdtm::sim {

namespace {

/// Self-destroying driver coroutine that owns a detached Task's frame.
struct Detached {
  struct promise_type {
    Detached get_return_object() { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { std::terminate(); }  // drive() never throws
  };
};

}  // namespace

struct SpawnDriver {
  static Detached drive(Simulator* sim, Task<void> task) {
    // Record the driver's own handle in the simulator's registry.
    const std::size_t slot = sim->register_driver(co_await CurrentHandle{});
    try {
      co_await std::move(task);
    } catch (...) {
      // Stash the first failure; Simulator::run rethrows it.  A failing
      // process is a bug in the experiment, not a recoverable condition.
      if (!sim->failure_) sim->failure_ = std::current_exception();
    }
    sim->unregister_driver(slot);
  }
};

Simulator::~Simulator() {
  // Destroy detached processes still suspended mid-await (parked past the
  // deadline when the experiment ended).  The driver frame owns its root
  // Task frame, which transitively owns every nested child frame, so one
  // destroy() unwinds the whole chain and releases promise states, wire
  // buffers, and anything else the process still held.
  auto drivers = std::move(drivers_);
  for (auto h : drivers) {
    if (h) h.destroy();
  }
  // Then destroy callables of events still pending, including any the
  // unwind above may have scheduled.  Resume thunks hold raw (non-owning)
  // handles, so discarding them never double-frees a frame.
  for (const HeapEntry& he : heap_) {
    Event& e = event(he.idx());
    e.discard(e);
  }
  for (std::size_t i = 0; i < lane_size_; ++i) {
    Event& e = event(lane_at(i).idx());
    e.discard(e);
  }
}

std::size_t Simulator::register_driver(std::coroutine_handle<> h) {
  if (!driver_free_.empty()) {
    const std::size_t slot = driver_free_.back();
    driver_free_.pop_back();
    drivers_[slot] = h;
    return slot;
  }
  drivers_.push_back(h);
  return drivers_.size() - 1;
}

void Simulator::unregister_driver(std::size_t slot) {
  drivers_[slot] = nullptr;
  driver_free_.push_back(slot);
}

void Simulator::grow_pool() {
  QRDTM_CHECK_MSG(chunks_.size() * kChunkSize < (std::size_t{1} << kIdxBits),
                  "event pool exhausted (16.7M in-flight events)");
  const auto base = static_cast<std::uint32_t>(chunks_.size() * kChunkSize);
  chunks_.push_back(std::make_unique<Event[]>(kChunkSize));
  free_.reserve(free_.capacity() + kChunkSize);
  // Hand out low indices first (cosmetic; any order is correct).
  for (std::uint32_t i = kChunkSize; i-- > 0;) free_.push_back(base + i);
}

void Simulator::grow_lane() {
  // Unroll the ring into a buffer twice the size, oldest entry first.
  std::vector<HeapEntry> grown(lane_.empty() ? 64 : lane_.size() * 2);
  for (std::size_t i = 0; i < lane_size_; ++i) grown[i] = lane_at(i);
  lane_ = std::move(grown);
  lane_head_ = 0;
}

Simulator::HeapEntry Simulator::heap_pop_min() {
  const HeapEntry min = heap_[0];
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    std::size_t i = 0;
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t first_child = i * kHeapArity + 1;
      if (first_child >= n) break;
      std::size_t best = first_child;
      const std::size_t end =
          first_child + kHeapArity < n ? first_child + kHeapArity : n;
      for (std::size_t c = first_child + 1; c < end; ++c) {
        if (heap_[c].before(heap_[best])) best = c;
      }
      if (!heap_[best].before(last)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
  }
  return min;
}

void Simulator::spawn(Task<void> task) {
  SpawnDriver::drive(this, std::move(task));
}

Tick Simulator::run() {
  drain(kNever);
  return now_;
}

Tick Simulator::run_until(Tick deadline) {
  drain(deadline);
  stopping_ = true;
  return now_;
}

Tick Simulator::advance_to(Tick deadline) {
  drain(deadline);
  return now_;
}

void Simulator::drain(Tick deadline) {
  for (;;) {
    if (failure_) {
      auto f = failure_;
      failure_ = nullptr;
      std::rethrow_exception(f);
    }
    // Next event: the heap top or the lane front, whichever is first in
    // (at, seq) order -- the order a single heap would pop them in.
    HeapEntry he;
    if (lane_size_ == 0 || (!heap_.empty() && heap_[0].before(lane_at(0)))) {
      if (heap_.empty() || heap_[0].at > deadline) break;
      he = heap_pop_min();
    } else {
      if (lane_at(0).at > deadline) break;
      he = lane_at(0);
      lane_head_ = (lane_head_ + 1) & (lane_.size() - 1);
      --lane_size_;
    }
    Event& e = event(he.idx());
    now_ = he.at;
    ++events_executed_;
    // Free the slot before running: run() first moves the callable out of
    // the slot buffer, so the slot may be re-used by events the callable
    // itself schedules (single-threaded, no race).
    free_.push_back(he.idx());
    e.run(e);
  }
  if (failure_) {
    auto f = failure_;
    failure_ = nullptr;
    std::rethrow_exception(f);
  }
}

}  // namespace qrdtm::sim
