// Unit tests for the discrete-event engine and coroutine task types.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/awaitables.hpp"
#include "sim/event_loop.hpp"
#include "sim/random.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace v::sim {
namespace {

TEST(EventLoop, RunsEventsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(30, [&] { order.push_back(3); });
  loop.schedule_at(10, [&] { order.push_back(1); });
  loop.schedule_at(20, [&] { order.push_back(2); });
  loop.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 30);
  EXPECT_EQ(loop.events_executed(), 3u);
}

TEST(EventLoop, EqualTimesFireInSchedulingOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  loop.run_until_idle();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventLoop, PastSchedulingClampsToNow) {
  EventLoop loop;
  SimTime seen = -1;
  loop.schedule_at(100, [&] {
    loop.schedule_at(50, [&] { seen = loop.now(); });  // in the past
  });
  loop.run_until_idle();
  EXPECT_EQ(seen, 100);
}

TEST(EventLoop, PastSchedulingPreservesFifoOrder) {
  // Regression: events scheduled in the past are clamped to now() and must
  // fire in SCHEDULING order relative to each other and to events already
  // scheduled at now() — the clamp must not reorder them.  The worker-team
  // run loop relies on this for deterministic wakeup/grant ordering.
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(100, [&] {
    loop.schedule_at(100, [&] { order.push_back(0); });  // exactly now
    loop.schedule_at(10, [&] { order.push_back(1); });   // past -> clamped
    loop.schedule_at(0, [&] { order.push_back(2); });    // further past
    loop.schedule_at(100, [&] { order.push_back(3); });
    loop.schedule_at(50, [&] { order.push_back(4); });   // past again
  });
  loop.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(loop.now(), 100);
}

TEST(EventLoop, EventsCanScheduleMoreEvents) {
  EventLoop loop;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 5) loop.schedule_after(10, tick);
  };
  loop.schedule_after(10, tick);
  loop.run_until_idle();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(loop.now(), 50);
}

TEST(EventLoop, RunUntilStopsAtDeadline) {
  EventLoop loop;
  int fired = 0;
  loop.schedule_at(10, [&] { ++fired; });
  loop.schedule_at(20, [&] { ++fired; });
  loop.schedule_at(30, [&] { ++fired; });
  loop.run_until(20);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(loop.now(), 20);
  loop.run_until_idle();
  EXPECT_EQ(fired, 3);
}

TEST(Time, Conversions) {
  EXPECT_EQ(to_ms(2 * kMillisecond + 560 * kMicrosecond), 2.56);
  EXPECT_EQ(from_ms(2.56), 2 * kMillisecond + 560 * kMicrosecond);
}

// --- coroutines -----------------------------------------------------------

Co<int> forty_two() { co_return 42; }

Co<int> adds(int a) {
  int x = co_await forty_two();
  co_return x + a;
}

TEST(Task, NestedCoAwaitPropagatesValues) {
  EventLoop loop;
  int result = 0;
  Fiber fiber([](int* out) -> Co<void> { *out = co_await adds(8); }(&result));
  fiber.start();
  loop.run_until_idle();
  EXPECT_TRUE(fiber.done());
  EXPECT_EQ(result, 50);
}

Co<void> throws_logic_error() {
  co_await forty_two();
  throw std::logic_error("boom");
}

TEST(Task, ExceptionsPropagateToFiber) {
  EventLoop loop;
  std::string message;
  Fiber fiber(throws_logic_error(), [&](std::exception_ptr e) {
    try {
      std::rethrow_exception(e);
    } catch (const std::logic_error& ex) {
      message = ex.what();
    }
  });
  fiber.start();
  loop.run_until_idle();
  EXPECT_TRUE(fiber.done());
  EXPECT_EQ(message, "boom");
  EXPECT_NE(fiber.error(), nullptr);
}

TEST(Task, DelayAdvancesSimTime) {
  EventLoop loop;
  SimTime finished = -1;
  Fiber fiber([](EventLoop* lp, SimTime* out) -> Co<void> {
    co_await DelayAwaiter(*lp, 5 * kMillisecond, nullptr);
    co_await DelayAwaiter(*lp, 7 * kMillisecond, nullptr);
    *out = lp->now();
  }(&loop, &finished));
  fiber.start();
  loop.run_until_idle();
  EXPECT_EQ(finished, 12 * kMillisecond);
}

// Proper kill test: the delay awaitable gets the fiber state.
TEST(Task, KillUnwindsAndRunsDestructors) {
  EventLoop loop;
  bool after = false;
  bool cleanup = false;
  struct Guard {
    bool* flag;
    explicit Guard(bool* f) : flag(f) {}
    ~Guard() { *flag = true; }
  };
  auto body = [](EventLoop* lp, FiberState* st, bool* a,
                 bool* c) -> Co<void> {
    Guard g(c);
    co_await DelayAwaiter(*lp, kMillisecond, st);
    *a = true;
  };
  // Two-phase construction: make the fiber, then hand its state in via a
  // wrapper coroutine that awaits the real body.
  std::shared_ptr<FiberState> state;
  auto outer = [&](EventLoop* lp, bool* a, bool* c) -> Co<void> {
    co_await body(lp, state.get(), a, c);
  };
  Fiber fiber(outer(&loop, &after, &cleanup));
  state = fiber.state();
  fiber.start();
  fiber.kill();  // pending delay resume will throw FiberKilled
  loop.run_until_idle();
  EXPECT_TRUE(fiber.done());
  EXPECT_FALSE(after);
  EXPECT_TRUE(cleanup);          // destructors ran during unwind
  EXPECT_EQ(fiber.error(), nullptr);  // kill is not an error
}

TEST(Task, FiberDestructionReleasesSuspendedChain) {
  EventLoop loop;
  // Destroy a fiber that is parked on a delay which never fires; ASAN-clean
  // destruction of the suspended frame chain is the assertion here.
  {
    Fiber fiber([](EventLoop* lp) -> Co<void> {
      co_await DelayAwaiter(*lp, kSecond, nullptr);
    }(&loop));
    fiber.start();
  }
  SUCCEED();
}

TEST(Waker, WakeResumesParkedCoroutine) {
  EventLoop loop;
  Waker waker;
  bool resumed = false;
  Fiber fiber([](Waker* w, bool* r) -> Co<void> {
    co_await ParkAwaiter(*w, nullptr);
    *r = true;
  }(&waker, &resumed));
  fiber.start();
  loop.run_until_idle();
  EXPECT_FALSE(resumed);  // parked, nothing woke it
  ASSERT_TRUE(waker.armed());
  waker.wake_after(loop, 3 * kMillisecond);
  loop.run_until_idle();
  EXPECT_TRUE(resumed);
  EXPECT_EQ(loop.now(), 3 * kMillisecond);
}

// --- rng ----------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(7), b(7), c(8);
  bool all_equal = true;
  bool any_differs_from_c = false;
  for (int i = 0; i < 100; ++i) {
    auto va = a.uniform(0, 1000000), vb = b.uniform(0, 1000000),
         vc = c.uniform(0, 1000000);
    all_equal = all_equal && (va == vb);
    any_differs_from_c = any_differs_from_c || (va != vc);
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_differs_from_c);
}

TEST(Rng, UniformBoundsRespected) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    auto value = rng.uniform(10, 20);
    EXPECT_GE(value, 10u);
    EXPECT_LE(value, 20u);
  }
}

}  // namespace
}  // namespace v::sim
