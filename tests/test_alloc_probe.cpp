// The allocation-free packet path, made executable (DESIGN.md §4l): with
// the envelope slab, intrusive mailboxes, inline delivery closures and the
// coroutine frame pool warmed up, a Send/Receive/Reply transaction touches
// the heap ZERO times.  chk::alloc_probe counts every global operator
// new/delete in this binary (the replacement operators link only here —
// see alloc_probe.hpp), and this test asserts the zero.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chk/alloc_probe.hpp"
#include "fault/fault.hpp"
#include "ipc/kernel.hpp"
#include "msg/message.hpp"
#include "sim/frame_pool.hpp"
#include "sim/time.hpp"
#include "svc/name_cache.hpp"

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

// The client name cache's slot table (DESIGN.md 4g): once full, warm hits
// and an evicting put reuse the slot and its key buffer.
TEST(AllocProbe, FullNameCacheHitsAndEvictionsAllocateNothing) {
  if (!chk::alloc_probe_active()) {
    GTEST_SKIP() << "probe inactive (sanitizer build owns the allocator)";
  }
  // Keys of one length past the small-string buffer: an evicted key's heap
  // buffer must be what the next key lands in.
  constexpr std::size_t kCapacity = 64;
  std::vector<std::string> keys;
  for (std::size_t i = 0; i < 2 * kCapacity; ++i) {
    keys.push_back("usr/mann/project-" + std::to_string(1000 + i));
  }
  const svc::NameCache::Binding binding{
      {ipc::ProcessId::make(1, 2), 7}, 42, 9, {77, 0, 5, 0}};
  svc::NameCache cache(kCapacity);
  for (std::size_t i = 0; i < kCapacity; ++i) cache.put(keys[i], binding);
  const std::uint64_t before = chk::alloc_counters().allocations;
  std::size_t found = 0;
  for (std::size_t i = 0; i < kCapacity; ++i) {
    found += cache.find(keys[i]).has_value() ? 1 : 0;
  }
  for (std::size_t i = kCapacity; i < 2 * kCapacity; ++i) {
    cache.put(keys[i], binding);  // evicts keys[i - kCapacity]
  }
  const std::uint64_t delta = chk::alloc_counters().allocations - before;
  EXPECT_EQ(delta, 0u) << delta << " heap allocations";
  EXPECT_EQ(found, kCapacity);
  EXPECT_EQ(cache.size(), kCapacity);
  EXPECT_FALSE(cache.find(keys[0]).has_value());
  EXPECT_TRUE(cache.find(keys[2 * kCapacity - 1]).has_value());
}

}  // namespace
}  // namespace v
