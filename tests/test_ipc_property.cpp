// Property/stress tests of the IPC kernel: randomized request storms over
// random topologies with crash injection.  Invariants:
//   * the simulation always drains (no lost wake-ups, no stuck fibers
//     other than servers parked in Receive);
//   * every completed send observed exactly one reply;
//   * no process dies with an unexpected exception;
//   * transport counters remain consistent with the client-side ledger.
#include <gtest/gtest.h>

#include <random>

#include "harness.hpp"
#include "ipc/kernel.hpp"
#include "msg/message.hpp"

namespace v::ipc {
namespace {

using sim::Co;
using sim::kMillisecond;

class IpcStorm : public ::testing::TestWithParam<int> {};

TEST_P(IpcStorm, RandomTopologyDrainsConsistently) {
  const unsigned seed = static_cast<unsigned>(GetParam()) * 48271u + 11u;
  std::mt19937 rng(seed);
  Domain dom(CalibrationParams::SunWorkstation3Mbit(), seed);

  const int n_hosts = 2 + static_cast<int>(rng() % 4);
  std::vector<Host*> hosts;
  for (int h = 0; h < n_hosts; ++h) {
    hosts.push_back(&dom.add_host("h" + std::to_string(h)));
  }

  // Echo servers scattered over the hosts; some will be crashed mid-run.
  const int n_servers = 2 + static_cast<int>(rng() % 5);
  std::vector<ProcessId> servers;
  for (int s = 0; s < n_servers; ++s) {
    servers.push_back(
        hosts[rng() % hosts.size()]->spawn("srv" + std::to_string(s),
                                           test::echo_server));
  }

  // Clients fire random request sequences at random servers.
  const int n_clients = 2 + static_cast<int>(rng() % 6);
  int completed_sends = 0;
  int ok_replies = 0;
  int no_replies = 0;
  int clients_done = 0;
  for (int c = 0; c < n_clients; ++c) {
    const unsigned client_seed = static_cast<unsigned>(rng());
    hosts[rng() % hosts.size()]->spawn(
        "client" + std::to_string(c),
        [&, client_seed](Process self) -> Co<void> {
          std::mt19937 crng(client_seed);
          const int requests = 10 + static_cast<int>(crng() % 30);
          for (int i = 0; i < requests; ++i) {
            const auto dest = servers[crng() % servers.size()];
            msg::Message request;
            request.set_code(0x0404);
            request.set_u32(4, crng());
            const auto reply = co_await self.send(request, dest);
            ++completed_sends;
            if (reply.reply_code() == ReplyCode::kOk) {
              ++ok_replies;
            } else {
              EXPECT_EQ(reply.reply_code(), ReplyCode::kNoReply);
              ++no_replies;
            }
            if (crng() % 3 == 0) {
              co_await self.delay(static_cast<sim::SimDuration>(
                  crng() % 2000) * sim::kMicrosecond);
            }
          }
          ++clients_done;
        });
  }

  // Crash one non-client host partway through (if it holds servers, their
  // pending requests resolve to kNoReply).
  const std::size_t victim = rng() % hosts.size();
  dom.loop().schedule_at(20 * kMillisecond,
                         [&, victim] { hosts[victim]->crash(); });

  dom.run();
  EXPECT_EQ(dom.process_failures(), 0u) << dom.first_failure();
  // Clients on the crashed host die mid-run; the others must all finish.
  EXPECT_LE(clients_done, n_clients);
  EXPECT_GT(completed_sends, 0);
  EXPECT_EQ(completed_sends, ok_replies + no_replies);
  // Transport ledger: at least one delivery attempt per completed send.
  EXPECT_GE(dom.stats().messages_sent,
            static_cast<std::uint64_t>(completed_sends));
  EXPECT_GE(dom.stats().replies_sent,
            static_cast<std::uint64_t>(ok_replies));
}

INSTANTIATE_TEST_SUITE_P(Seeds, IpcStorm, ::testing::Range(0, 12));

class GroupStorm : public ::testing::TestWithParam<int> {};

TEST_P(GroupStorm, GroupSendsAlwaysResolve) {
  // Every group send must resolve to exactly one reply (first member or
  // timeout), under churn of joins, leaves and crashes.
  const unsigned seed = static_cast<unsigned>(GetParam()) * 69621u + 3u;
  Domain dom(CalibrationParams::SunWorkstation3Mbit(), seed);
  std::mt19937 rng(seed);
  constexpr GroupId kGroup = 0xAB;

  auto& client_host = dom.add_host("client-host");
  const int n_members = 1 + static_cast<int>(rng() % 5);
  std::vector<Host*> member_hosts;
  for (int m = 0; m < n_members; ++m) {
    auto& host = dom.add_host("m" + std::to_string(m));
    member_hosts.push_back(&host);
    host.spawn("member" + std::to_string(m), [](Process self) -> Co<void> {
      self.join_group(0xAB);
      for (;;) {
        auto env = co_await self.receive();
        self.reply(env, msg::make_reply(ReplyCode::kOk));
      }
    });
  }
  // Crash a random member host partway through.
  const std::size_t victim = rng() % member_hosts.size();
  dom.loop().schedule_at(50 * kMillisecond,
                         [&, victim] { member_hosts[victim]->crash(); });

  int resolved = 0;
  bool done = false;
  client_host.spawn("client", [&](Process self) -> Co<void> {
    co_await self.delay(kMillisecond);
    for (int i = 0; i < 40; ++i) {
      const auto reply =
          co_await self.send_to_group(msg::Message{}, kGroup);
      EXPECT_TRUE(reply.reply_code() == ReplyCode::kOk ||
                  reply.reply_code() == ReplyCode::kTimeout);
      ++resolved;
      co_await self.delay(3 * kMillisecond);
    }
    done = true;
  });
  dom.run();
  EXPECT_EQ(dom.process_failures(), 0u) << dom.first_failure();
  EXPECT_TRUE(done);
  EXPECT_EQ(resolved, 40);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroupStorm, ::testing::Range(0, 8));

}  // namespace
}  // namespace v::ipc
