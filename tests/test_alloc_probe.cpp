// The allocation-free packet path, made executable (DESIGN.md §4l): with
// the envelope slab, intrusive mailboxes, inline delivery closures and the
// coroutine frame pool warmed up, a Send/Receive/Reply transaction touches
// the heap ZERO times.  chk::alloc_probe counts every global operator
// new/delete in this binary (the replacement operators link only here —
// see alloc_probe.hpp), and this test asserts the zero.
#include <gtest/gtest.h>

#include "chk/alloc_probe.hpp"
#include "fault/fault.hpp"
#include "ipc/kernel.hpp"
#include "msg/message.hpp"
#include "sim/frame_pool.hpp"
#include "sim/time.hpp"

namespace v {
namespace {

using sim::Co;

#if V_FRAME_POOL_ENABLED
/// Warm ping-pong between two hosts; asserts the measured window of
/// Send/Receive/Reply transactions makes zero heap allocations.  `plan`
/// (optional) is installed first.
void expect_warm_transactions_allocate_nothing(fault::FaultPlan* plan) {
  ipc::Domain dom;
  auto& ws = dom.add_host("ws1");
  auto& srv = dom.add_host("srv1");
  if (plan != nullptr) {
    auto& spare = dom.add_host("spare");
    // Crash-only: a lifecycle event far past the run, no link faults.
    plan->crash_at(3600 * sim::kSecond, spare.id());
    dom.install_faults(*plan);
  }
  const auto echo_pid = srv.spawn("echo", [](ipc::Process self) -> Co<void> {
    for (;;) {
      auto env = co_await self.receive();
      self.reply(env, msg::make_reply(ReplyCode::kOk));
    }
  });
  // Warm-up grows every pool once (event-loop slab chunks, envelope slab,
  // frame pool, metric registrations); the measured window reuses them.
  constexpr int kWarmup = 2'000;
  constexpr int kMeasured = 10'000;
  std::uint64_t baseline_allocs = 0;
  bool done = false;
  ws.spawn("pinger", [&, echo_pid](ipc::Process self) -> Co<void> {
    msg::Message ping;
    ping.set_code(0x0200);  // above the protocol ranges' floor; not CSname
    for (int i = 0; i < kWarmup; ++i) {
      (void)co_await self.send(ping, echo_pid);
    }
    baseline_allocs = chk::alloc_counters().allocations;
    for (int i = 0; i < kMeasured; ++i) {
      (void)co_await self.send(ping, echo_pid);
    }
    const std::uint64_t delta =
        chk::alloc_counters().allocations - baseline_allocs;
    EXPECT_EQ(delta, 0u) << delta << " heap allocations across " << kMeasured
                         << " warm transactions";
    done = true;
  });
  dom.run();
  EXPECT_EQ(dom.process_failures(), 0u) << dom.first_failure();
  EXPECT_TRUE(done) << "pinger parked forever";
}
#endif

TEST(AllocProbe, WarmPingPongTransactionsAllocateNothing) {
  if (!chk::alloc_probe_active()) {
    GTEST_SKIP() << "probe inactive (sanitizer build owns the allocator)";
  }
#if !V_FRAME_POOL_ENABLED
  GTEST_SKIP() << "frame pool disabled: coroutine frames hit the heap";
#else
  expect_warm_transactions_allocate_nothing(nullptr);
#endif
}

// A plan whose links cannot fault arms no loss masking: no retransmit
// timer per Send, no duplicate-suppression slot, so still zero.
TEST(AllocProbe, WarmTransactionsUnderCrashOnlyPlanAllocateNothing) {
  if (!chk::alloc_probe_active()) {
    GTEST_SKIP() << "probe inactive (sanitizer build owns the allocator)";
  }
#if !V_FRAME_POOL_ENABLED
  GTEST_SKIP() << "frame pool disabled: coroutine frames hit the heap";
#else
  fault::FaultPlan plan;
  expect_warm_transactions_allocate_nothing(&plan);
  EXPECT_EQ(plan.stats().retransmits, 0u);
  EXPECT_EQ(plan.stats().crashes, 1u);
#endif
}

}  // namespace
}  // namespace v
