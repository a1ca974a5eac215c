// Unit tests for the coroutine DES kernel (sim/).
#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace qrdtm::sim {
namespace {

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(30, [&] { order.push_back(3); });
  s.schedule_at(10, [&] { order.push_back(1); });
  s.schedule_at(20, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30u);
}

TEST(Simulator, TiesBreakByInsertionOrder) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, SchedulingIntoThePastThrows) {
  Simulator s;
  s.schedule_at(10, [&s] {
    EXPECT_THROW(s.schedule_at(5, [] {}), qrdtm::InvariantError);
  });
  s.run();
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator s;
  int ran = 0;
  s.schedule_at(10, [&] { ++ran; });
  s.schedule_at(20, [&] { ++ran; });
  s.schedule_at(30, [&] { ++ran; });
  s.run_until(20);
  EXPECT_EQ(ran, 2);
  EXPECT_TRUE(s.stopping());
}

// --- FIFO timer lane --------------------------------------------------------
// schedule_timer_after keeps schedule_after's firing order exactly: events
// fire in (at, seq) order whichever of the heap or the lane holds them.

TEST(TimerLane, LaneAndHeapEventsAtTheSameTickFireInSequenceOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_timer_after(10, [&] { order.push_back(1); });  // lane
  s.schedule_at(10, [&] { order.push_back(2); });           // heap
  s.schedule_timer_after(10, [&] { order.push_back(3); });  // lane
  s.schedule_at(5, [&] { order.push_back(0); });            // heap
  s.schedule_after(10, [&] { order.push_back(4); });        // heap
  s.schedule_timer_after(20, [&] { order.push_back(6); });  // lane
  s.schedule_at(20, [&] { order.push_back(7); });           // heap
  s.schedule_at(10, [&] {
    order.push_back(5);
    // Scheduled at tick 10 for tick 20: after every entry made at tick 0.
    s.schedule_timer_after(10, [&] { order.push_back(8); });
  });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_EQ(s.events_executed(), 9u);
}

TEST(TimerLane, TimerBeforeTheLaneTailGoesToTheHeapAndFiresInOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_timer_after(50, [&] { order.push_back(50); });  // lane tail
  // Would fire before the tail: appending it would break the lane's order,
  // so it must take the heap.
  s.schedule_timer_after(30, [&] { order.push_back(30); });
  s.schedule_at(40, [&] { order.push_back(40); });
  s.schedule_timer_after(50, [&] { order.push_back(51); });  // lane again
  s.run();
  EXPECT_EQ(order, (std::vector<int>{30, 40, 50, 51}));
}

TEST(TimerLane, RingGrowthAfterWrapKeepsOrder) {
  // Pop part of the lane so its head moves, then push past its capacity:
  // the grown ring must unroll from the head.
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    s.schedule_timer_after(static_cast<Tick>(i + 1),
                           [&order, i] { order.push_back(i); });
  }
  s.advance_to(25);
  for (int i = 50; i < 200; ++i) {
    s.schedule_timer_after(static_cast<Tick>(i + 1) - 25,
                           [&order, i] { order.push_back(i); });
  }
  s.run();
  ASSERT_EQ(order.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(order[i], i);
}

TEST(TimerLane, DestroyedSimulatorFreesPendingLaneCallables) {
  auto token = std::make_shared<int>(0);
  {
    Simulator s;
    s.schedule_timer_after(10, [token] {});
    s.schedule_timer_after(20, [token] {});
    // An oversized callable is boxed on the heap; discarding frees the box.
    std::array<char, 128> big{};
    s.schedule_timer_after(30, [token, big] { (void)big; });
    s.run_until(5);
    EXPECT_EQ(token.use_count(), 4);
  }
  EXPECT_EQ(token.use_count(), 1) << "pending lane callables leaked";
}

TEST(Task, DelayAdvancesSimulatedTime) {
  Simulator s;
  Tick finished = 0;
  s.spawn([](Simulator* sim, Tick* out) -> Task<void> {
    co_await sim->delay(msec(5));
    co_await sim->delay(msec(7));
    *out = sim->now();
  }(&s, &finished));
  s.run();
  EXPECT_EQ(finished, msec(12));
}

Task<int> add_later(Simulator& s, int a, int b) {
  co_await s.delay(100);
  co_return a + b;
}

TEST(Task, ValuePropagatesThroughCoAwait) {
  Simulator s;
  int result = 0;
  s.spawn([](Simulator* sim, int* out) -> Task<void> {
    *out = co_await add_later(*sim, 2, 3);
  }(&s, &result));
  s.run();
  EXPECT_EQ(result, 5);
}

Task<int> deep(Simulator& s, int depth) {
  if (depth == 0) {
    co_await s.delay(1);
    co_return 0;
  }
  int below = co_await deep(s, depth - 1);
  co_return below + 1;
}

TEST(Task, DeepAwaitChainsDontOverflowStack) {
  Simulator s;
  int result = -1;
  s.spawn([](Simulator* sim, int* out) -> Task<void> {
    *out = co_await deep(*sim, 20000);
  }(&s, &result));
  s.run();
  EXPECT_EQ(result, 20000);
}

struct Boom {
  std::string what;
};

Task<void> throws_after_delay(Simulator& s) {
  co_await s.delay(10);
  throw Boom{"bang"};
}

TEST(Task, ExceptionPropagatesToAwaiter) {
  Simulator s;
  std::string caught;
  s.spawn([](Simulator* sim, std::string* out) -> Task<void> {
    try {
      co_await throws_after_delay(*sim);
    } catch (const Boom& b) {
      *out = b.what;
    }
  }(&s, &caught));
  s.run();
  EXPECT_EQ(caught, "bang");
}

TEST(Task, UncaughtExceptionSurfacesFromRun) {
  Simulator s;
  s.spawn(throws_after_delay(s));
  EXPECT_THROW(s.run(), Boom);
}

TEST(Future, AwaitBeforeFulfil) {
  Simulator s;
  Promise<int> p(s);
  int got = 0;
  s.spawn([](Promise<int> pr, int* out) -> Task<void> {
    *out = co_await pr.future();
  }(p, &got));
  s.schedule_at(50, [p]() mutable { p.set(77); });
  s.run();
  EXPECT_EQ(got, 77);
}

TEST(Future, FulfilBeforeAwait) {
  Simulator s;
  Promise<int> p(s);
  p.set(5);
  int got = 0;
  s.spawn([](Promise<int> pr, int* out) -> Task<void> {
    *out = co_await pr.future();
  }(p, &got));
  s.run();
  EXPECT_EQ(got, 5);
}

TEST(Future, TrySetOnlyFirstWins) {
  Simulator s;
  Promise<int> p(s);
  EXPECT_TRUE(p.try_set(1));
  EXPECT_FALSE(p.try_set(2));
  int got = 0;
  s.spawn([](Promise<int> pr, int* out) -> Task<void> {
    *out = co_await pr.future();
  }(p, &got));
  s.run();
  EXPECT_EQ(got, 1);
}

TEST(Future, DoubleSetThrows) {
  Simulator s;
  Promise<int> p(s);
  p.set(1);
  EXPECT_THROW(p.set(2), qrdtm::InvariantError);
}

TEST(Future, ConsumedTwiceThrows) {
  Simulator s;
  Promise<int> p(s);
  p.set(1);
  s.spawn([](Promise<int> pr) -> Task<void> {
    auto fut = pr.future();
    (void)co_await fut;
    bool threw = false;
    try {
      (void)co_await fut;  // one-shot: second consume must be rejected
    } catch (const qrdtm::InvariantError&) {
      threw = true;
    }
    EXPECT_TRUE(threw);
  }(p));
  s.run();
}

TEST(Simulator, AdvanceToDoesNotStop) {
  Simulator s;
  s.schedule_at(10, [] {});
  s.advance_to(20);
  EXPECT_FALSE(s.stopping());
  s.request_stop();
  EXPECT_TRUE(s.stopping());
}

// Determinism property: interleaving of many delayed processes is identical
// across runs.
TEST(SimProperty, DeterministicInterleaving) {
  auto trace = []() {
    Simulator s;
    std::vector<int> order;
    for (int i = 0; i < 50; ++i) {
      s.spawn([](Simulator* sim, std::vector<int>* out, int id) -> Task<void> {
        co_await sim->delay((id * 37) % 11);
        co_await sim->delay((id * 13) % 7);
        out->push_back(id);
      }(&s, &order, i));
    }
    s.run();
    return order;
  };
  auto a = trace();
  auto b = trace();
  EXPECT_EQ(a, b);
}

// --- allocation regression -------------------------------------------------
// The event kernel recycles event slots and heap storage; once warmed up, a
// schedule/fire cycle and a coroutine delay/resume cycle must not touch the
// allocator at all.

TEST(AllocRegression, SteadyStateScheduleCycleIsAllocationFree) {
  if (!qrdtm::testing::alloc_hook_active()) {
    GTEST_SKIP() << "allocation counting unavailable (sanitizer build intercepts\n operator new, or replacement not linked in)";
  }
  Simulator s;
  std::uint64_t after_warm = 0;
  std::uint64_t after_measure = 0;
  struct Chain {
    Simulator* s;
    int left;
    std::uint64_t* warm;
    std::uint64_t* measure;
    void operator()() {
      if (left == 4096) *warm = qrdtm::testing::alloc_count();
      if (left == 0) {
        *measure = qrdtm::testing::alloc_count();
        return;
      }
      --left;
      s->schedule_after(1, *this);
    }
  };
  s.schedule_after(1, Chain{&s, 8192, &after_warm, &after_measure});
  s.run();
  ASSERT_NE(after_measure, 0u);
  EXPECT_EQ(after_measure, after_warm);
}

TEST(AllocRegression, SteadyStateDelayResumeIsAllocationFree) {
  if (!qrdtm::testing::alloc_hook_active()) {
    GTEST_SKIP() << "allocation counting unavailable (sanitizer build intercepts\n operator new, or replacement not linked in)";
  }
  Simulator s;
  std::uint64_t after_warm = 0;
  std::uint64_t after_measure = 0;
  s.spawn([](Simulator* sim, std::uint64_t* warm,
             std::uint64_t* measure) -> Task<void> {
    for (int i = 0; i < 4096; ++i) co_await sim->delay(1);
    *warm = qrdtm::testing::alloc_count();
    for (int i = 0; i < 4096; ++i) co_await sim->delay(1);
    *measure = qrdtm::testing::alloc_count();
  }(&s, &after_warm, &after_measure));
  s.run();
  ASSERT_NE(after_measure, 0u);
  EXPECT_EQ(after_measure, after_warm);
}

// Frames come from FramePool: once each frame size has been allocated and
// freed, a three-deep co_await chain (the shape of Txn::read ->
// acquire_copy -> quorum_fetch) allocates nothing.
Task<int> chain_leaf(Simulator* sim, int v) {
  co_await sim->delay(1);
  co_return v + 1;
}
Task<int> chain_mid(Simulator* sim, int v) {
  co_return co_await chain_leaf(sim, v) * 2;
}
Task<int> chain_top(Simulator* sim, int v) {
  co_return co_await chain_mid(sim, v) - 1;
}

TEST(AllocRegression, SteadyStateTaskChainIsAllocationFree) {
  if (!qrdtm::testing::alloc_hook_active()) {
    GTEST_SKIP() << "allocation counting unavailable (sanitizer build intercepts\n operator new, or replacement not linked in)";
  }
  Simulator s;
  std::uint64_t after_warm = 0;
  std::uint64_t after_measure = 0;
  long sum = 0;
  s.spawn([](Simulator* sim, std::uint64_t* warm, std::uint64_t* measure,
             long* total) -> Task<void> {
    for (int i = 0; i < 1024; ++i) *total += co_await chain_top(sim, i);
    *warm = qrdtm::testing::alloc_count();
    for (int i = 0; i < 1024; ++i) *total += co_await chain_top(sim, i);
    *measure = qrdtm::testing::alloc_count();
  }(&s, &after_warm, &after_measure, &sum));
  s.run();
  ASSERT_NE(after_measure, 0u);
  EXPECT_EQ(after_measure, after_warm);
  EXPECT_EQ(sum, 2 * (1024L * 1023L + 1024L));  // sum of 2(i+1)-1, twice
}

}  // namespace
}  // namespace qrdtm::sim
