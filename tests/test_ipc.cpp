// Tests for the simulated distributed V kernel: IPC primitives, service
// registry, groups, crash behaviour, and the calibration targets from the
// paper's section 3.1.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "harness.hpp"
#include "ipc/calibration.hpp"
#include "ipc/kernel.hpp"
#include "msg/message.hpp"
#include "sim/time.hpp"

namespace v::ipc {
namespace {

using sim::Co;
using sim::kMillisecond;
using sim::to_ms;
using test::echo_server;
using test::run_client;

// --- pid structure (paper section 4.1, Figure 2) ---------------------------

TEST(Pid, SubfieldStructure) {
  const ProcessId pid = ProcessId::make(0x1234, 0x5678);
  EXPECT_EQ(pid.logical_host(), 0x1234);
  EXPECT_EQ(pid.local_pid(), 0x5678);
  EXPECT_EQ(pid.raw, 0x12345678u);
  EXPECT_TRUE(pid.valid());
  EXPECT_FALSE(ProcessId::invalid().valid());
}

TEST(Pid, LocalityTestIsPureBitCompare) {
  const ProcessId pid = ProcessId::make(3, 99);
  EXPECT_TRUE(pid.local_to(3));
  EXPECT_FALSE(pid.local_to(4));
}

TEST(Pid, SpawnedPidsAreUniqueAcrossHosts) {
  Domain dom;
  auto& h1 = dom.add_host("ws1");
  auto& h2 = dom.add_host("ws2");
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 200; ++i) {
    seen.insert(h1.spawn("p", [](Process) -> Co<void> { co_return; }).raw);
    seen.insert(h2.spawn("p", [](Process) -> Co<void> { co_return; }).raw);
  }
  EXPECT_EQ(seen.size(), 400u);
  dom.run();
  EXPECT_EQ(dom.process_failures(), 0u) << dom.first_failure();
}

// --- transaction timing (paper section 3.1) ---------------------------------

TEST(Ipc, LocalTransactionTakesTwoLocalHops) {
  Domain dom;
  auto& host = dom.add_host("ws1");
  const ProcessId server = host.spawn("server", echo_server);
  sim::SimDuration elapsed = -1;
  run_client(dom, host, [&, server](Process self) -> Co<void> {
    const auto t0 = self.now();
    const auto reply = co_await self.send(msg::Message{}, server);
    elapsed = self.now() - t0;
    EXPECT_EQ(reply.reply_code(), ReplyCode::kOk);
  });
  EXPECT_EQ(elapsed, 2 * dom.params().local_hop);
  // Paper: 0.77 ms for a local 32-byte message transaction.
  EXPECT_NEAR(to_ms(elapsed), 0.77, 0.01);
}

TEST(Ipc, RemoteTransactionMatchesPaper) {
  Domain dom;
  auto& ws1 = dom.add_host("ws1");
  auto& ws2 = dom.add_host("ws2");
  const ProcessId server = ws2.spawn("server", echo_server);
  sim::SimDuration elapsed = -1;
  run_client(dom, ws1, [&, server](Process self) -> Co<void> {
    const auto t0 = self.now();
    (void)co_await self.send(msg::Message{}, server);
    elapsed = self.now() - t0;
  });
  // Paper: 2.56 ms between two SUN workstations on 3 Mbit Ethernet.
  EXPECT_NEAR(to_ms(elapsed), 2.56, 0.01);
}

TEST(Ipc, RequestAndReplyFieldsRoundTrip) {
  Domain dom;
  auto& host = dom.add_host("ws1");
  const ProcessId server =
      host.spawn("server", [](Process self) -> Co<void> {
        auto env = co_await self.receive();
        EXPECT_EQ(env.request.code(), 0x0404);
        EXPECT_EQ(env.request.u32(8), 0xDEADBEEFu);
        msg::Message reply = msg::make_reply(ReplyCode::kOk);
        reply.set_u32(4, 0xCAFEF00Du);
        self.reply(env, reply);
      });
  run_client(dom, host, [server](Process self) -> Co<void> {
    msg::Message req;
    req.set_code(0x0404);
    req.set_u32(8, 0xDEADBEEF);
    const auto reply = co_await self.send(req, server);
    EXPECT_EQ(reply.reply_code(), ReplyCode::kOk);
    EXPECT_EQ(reply.u32(4), 0xCAFEF00Du);
  });
}

// --- forwarding -------------------------------------------------------------

TEST(Ipc, ForwardDeliversToThirdProcessWithOriginalSender) {
  Domain dom;
  auto& host = dom.add_host("ws1");
  ProcessId client_pid;
  const ProcessId final_server =
      host.spawn("final", [&](Process self) -> Co<void> {
        auto env = co_await self.receive();
        // "It appears as though the sender originally sent to the third
        // process": the envelope's sender is the client, not the forwarder.
        EXPECT_EQ(env.sender, client_pid);
        EXPECT_EQ(env.request.u16(2), 7);  // rewritten by the forwarder
        self.reply(env, msg::make_reply(ReplyCode::kOk));
      });
  const ProcessId forwarder =
      host.spawn("forwarder", [final_server](Process self) -> Co<void> {
        auto env = co_await self.receive();
        env.request.set_u16(2, 7);  // forwarders may rewrite the message
        self.forward(env, final_server);
      });
  host.spawn("client", [&](Process self) -> Co<void> {
    client_pid = self.pid();
    const auto reply = co_await self.send(msg::Message{}, forwarder);
    EXPECT_EQ(reply.reply_code(), ReplyCode::kOk);
  });
  dom.run();
  EXPECT_EQ(dom.process_failures(), 0u) << dom.first_failure();
}

TEST(Ipc, ForwardCostsOneExtraHop) {
  Domain dom;
  auto& host = dom.add_host("ws1");
  const ProcessId final_server = host.spawn("final", echo_server);
  const ProcessId forwarder =
      host.spawn("forwarder", [final_server](Process self) -> Co<void> {
        auto env = co_await self.receive();
        self.forward(env, final_server);
      });
  sim::SimDuration direct = -1, forwarded = -1;
  run_client(dom, host, [&](Process self) -> Co<void> {
    auto t0 = self.now();
    (void)co_await self.send(msg::Message{}, final_server);
    direct = self.now() - t0;
    t0 = self.now();
    (void)co_await self.send(msg::Message{}, forwarder);
    forwarded = self.now() - t0;
  });
  EXPECT_EQ(forwarded - direct, dom.params().local_hop);
}

// --- MoveFrom / MoveTo ------------------------------------------------------

TEST(Ipc, MoveFromReadsBlockedSendersSegment) {
  Domain dom;
  auto& host = dom.add_host("ws1");
  const ProcessId server =
      host.spawn("server", [](Process self) -> Co<void> {
        auto env = co_await self.receive();
        std::vector<std::byte> buf(5);
        auto got = co_await self.move_from(env, buf, 0);
        EXPECT_TRUE(got.ok());
        EXPECT_EQ(got.value(), 5u);
        EXPECT_EQ(std::memcmp(buf.data(), "hello", 5), 0);
        // Offset reads work too.
        std::vector<std::byte> tail(3);
        got = co_await self.move_from(env, tail, 2);
        EXPECT_TRUE(got.ok());
        EXPECT_EQ(std::memcmp(tail.data(), "llo", 3), 0);
        self.reply(env, msg::make_reply(ReplyCode::kOk));
      });
  run_client(dom, host, [server](Process self) -> Co<void> {
    const char data[] = "hello";
    Segments segs;
    segs.read = std::as_bytes(std::span(data, 5));
    const auto reply = co_await self.send(msg::Message{}, server, segs);
    EXPECT_EQ(reply.reply_code(), ReplyCode::kOk);
  });
}

TEST(Ipc, MoveToWritesBlockedSendersSegment) {
  Domain dom;
  auto& host = dom.add_host("ws1");
  const ProcessId server =
      host.spawn("server", [](Process self) -> Co<void> {
        auto env = co_await self.receive();
        const char page[] = "PAGEDATA";
        auto put =
            co_await self.move_to(env, std::as_bytes(std::span(page, 8)));
        EXPECT_TRUE(put.ok());
        self.reply(env, msg::make_reply(ReplyCode::kOk));
      });
  run_client(dom, host, [server](Process self) -> Co<void> {
    std::vector<std::byte> buf(8);
    Segments segs;
    segs.write = buf;
    const auto reply = co_await self.send(msg::Message{}, server, segs);
    EXPECT_EQ(reply.reply_code(), ReplyCode::kOk);
    EXPECT_EQ(std::memcmp(buf.data(), "PAGEDATA", 8), 0);
  });
}

TEST(Ipc, MoveFromBeyondSegmentIsBadArgs) {
  Domain dom;
  auto& host = dom.add_host("ws1");
  const ProcessId server =
      host.spawn("server", [](Process self) -> Co<void> {
        auto env = co_await self.receive();
        std::vector<std::byte> buf(10);  // larger than the 5-byte segment
        auto got = co_await self.move_from(env, buf, 0);
        EXPECT_FALSE(got.ok());
        EXPECT_EQ(got.code(), ReplyCode::kBadArgs);
        self.reply(env, msg::make_reply(ReplyCode::kOk));
      });
  run_client(dom, host, [server](Process self) -> Co<void> {
    const char data[] = "hello";
    Segments segs;
    segs.read = std::as_bytes(std::span(data, 5));
    (void)co_await self.send(msg::Message{}, server, segs);
  });
}

TEST(Ipc, BulkTransferCalibrationMatchesProgramLoad) {
  // Paper: a 64 KB program loads in 338 ms over the 3 Mbit Ethernet.
  const auto params = CalibrationParams::SunWorkstation3Mbit();
  const double ms = to_ms(params.move_to_cost(64 * 1024, /*local=*/false));
  EXPECT_NEAR(ms, 338.0, 12.0);  // within ~3.5%
}

// --- send failures ----------------------------------------------------------

TEST(Ipc, SendToUnknownPidGetsNoReply) {
  Domain dom;
  auto& host = dom.add_host("ws1");
  run_client(dom, host, [](Process self) -> Co<void> {
    const auto reply =
        co_await self.send(msg::Message{}, ProcessId::make(9, 9));
    EXPECT_EQ(reply.reply_code(), ReplyCode::kNoReply);
  });
}

TEST(Ipc, SendToExitedProcessGetsNoReply) {
  Domain dom;
  auto& host = dom.add_host("ws1");
  const ProcessId transient =
      host.spawn("transient", [](Process) -> Co<void> { co_return; });
  run_client(dom, host, [transient](Process self) -> Co<void> {
    co_await self.delay(kMillisecond);  // let it exit first
    const auto reply = co_await self.send(msg::Message{}, transient);
    EXPECT_EQ(reply.reply_code(), ReplyCode::kNoReply);
  });
}

// --- service registry (paper section 4.2) -----------------------------------

TEST(Registry, LocalRegistrationFoundLocally) {
  Domain dom;
  auto& host = dom.add_host("ws1");
  const ProcessId server = host.spawn("time", echo_server);
  run_client(dom, host, [server](Process self) -> Co<void> {
    self.set_pid(ServiceId::kTimeServer, server, Scope::kLocal);
    const auto found =
        co_await self.get_pid(ServiceId::kTimeServer, Scope::kLocal);
    EXPECT_EQ(found, server);
  });
}

TEST(Registry, LocalOnlyRegistrationInvisibleRemotely) {
  Domain dom;
  auto& ws1 = dom.add_host("ws1");
  auto& ws2 = dom.add_host("ws2");
  const ProcessId server = ws1.spawn("time", echo_server);
  run_client(dom, ws2, [server](Process self) -> Co<void> {
    self.set_pid(ServiceId::kTimeServer, server, Scope::kLocal);
    const auto found =
        co_await self.get_pid(ServiceId::kTimeServer, Scope::kBoth);
    EXPECT_FALSE(found.valid());
  });
}

TEST(Registry, RemoteLookupUsesBroadcast) {
  Domain dom;
  auto& ws1 = dom.add_host("ws1");
  auto& fileserver = dom.add_host("fs1");
  const ProcessId server = fileserver.spawn("storage", echo_server);
  sim::SimDuration lookup_time = -1;
  run_client(dom, ws1, [&, server](Process self) -> Co<void> {
    self.set_pid(ServiceId::kStorageServer, server, Scope::kBoth);
    const auto t0 = self.now();
    const auto found =
        co_await self.get_pid(ServiceId::kStorageServer, Scope::kBoth);
    lookup_time = self.now() - t0;
    EXPECT_EQ(found, server);
  });
  // Local miss + broadcast: costs at least the broadcast query time.
  EXPECT_GE(lookup_time, dom.params().broadcast_query);
}

TEST(Registry, RemoteOnlyRegistrationInvisibleToLocalScope) {
  Domain dom;
  auto& host = dom.add_host("ws1");
  const ProcessId server = host.spawn("printer", echo_server);
  run_client(dom, host, [server](Process self) -> Co<void> {
    self.set_pid(ServiceId::kPrinterServer, server, Scope::kRemote);
    const auto found =
        co_await self.get_pid(ServiceId::kPrinterServer, Scope::kLocal);
    EXPECT_FALSE(found.valid());
  });
}

TEST(Registry, ReRegistrationRebindsService) {
  // Paper section 4.2: if a storage server is recreated after a crash with
  // a different pid, it is still the same service from the client's view.
  Domain dom;
  auto& host = dom.add_host("ws1");
  const ProcessId first = host.spawn("time-v1", echo_server);
  const ProcessId second = host.spawn("time-v2", echo_server);
  run_client(dom, host, [first, second](Process self) -> Co<void> {
    self.set_pid(ServiceId::kTimeServer, first, Scope::kLocal);
    auto found = co_await self.get_pid(ServiceId::kTimeServer, Scope::kLocal);
    EXPECT_EQ(found, first);
    self.set_pid(ServiceId::kTimeServer, second, Scope::kLocal);
    found = co_await self.get_pid(ServiceId::kTimeServer, Scope::kLocal);
    EXPECT_EQ(found, second);
  });
}

// --- groups / multicast (paper section 7 future work) -----------------------

TEST(Group, FirstReplyWins) {
  Domain dom;
  auto& ws1 = dom.add_host("ws1");
  auto& ws2 = dom.add_host("ws2");
  constexpr GroupId kGroup = 42;
  // Fast member on the same host; slow member remote.
  ws1.spawn("fast", [](Process self) -> Co<void> {
    self.join_group(42);
    auto env = co_await self.receive();
    msg::Message m = msg::make_reply(ReplyCode::kOk);
    m.set_u16(2, 1);  // identifies the fast member
    self.reply(env, m);
  });
  ws2.spawn("slow", [](Process self) -> Co<void> {
    self.join_group(42);
    auto env = co_await self.receive();
    co_await self.delay(50 * kMillisecond);
    msg::Message m = msg::make_reply(ReplyCode::kOk);
    m.set_u16(2, 2);
    self.reply(env, m);
  });
  run_client(dom, ws1, [kGroup](Process self) -> Co<void> {
    co_await self.delay(kMillisecond);  // let members join
    const auto reply = co_await self.send_to_group(msg::Message{}, kGroup);
    EXPECT_EQ(reply.reply_code(), ReplyCode::kOk);
    EXPECT_EQ(reply.u16(2), 1);  // the fast local member answered first
  });
}

TEST(Group, EmptyGroupTimesOut) {
  Domain dom;
  auto& host = dom.add_host("ws1");
  run_client(dom, host, [](Process self) -> Co<void> {
    const auto reply = co_await self.send_to_group(msg::Message{}, 777);
    EXPECT_EQ(reply.reply_code(), ReplyCode::kTimeout);
  });
}

TEST(Group, MulticastDeliversInJoinOrder) {
  // Fan-out order is the members' join order (the per-group member
  // vector), NOT any property of the group table — the table is an
  // open-addressing map whose layout must never leak into event order.
  Domain dom;
  auto& host = dom.add_host("ws1");
  constexpr GroupId kGroup = 9;
  std::vector<int> delivered;
  for (int i = 0; i < 5; ++i) {
    host.spawn("member" + std::to_string(i),
               [&delivered, i](Process self) -> Co<void> {
                 self.join_group(kGroup);
                 auto env = co_await self.receive();
                 delivered.push_back(i);
                 self.reply(env, msg::make_reply(ReplyCode::kOk));
               });
  }
  run_client(dom, host, [&delivered](Process self) -> Co<void> {
    co_await self.delay(kMillisecond);  // let members join, in spawn order
    const auto reply = co_await self.send_to_group(msg::Message{}, kGroup);
    EXPECT_EQ(reply.reply_code(), ReplyCode::kOk);
    co_await self.delay(kMillisecond);  // drain the stragglers' deliveries
    EXPECT_EQ(delivered, (std::vector<int>{0, 1, 2, 3, 4}));
  });
}

TEST(Group, DeadMembersAreSkipped) {
  Domain dom;
  auto& host = dom.add_host("ws1");
  host.spawn("gone", [](Process self) -> Co<void> {
    self.join_group(7);
    co_return;  // exits immediately; stays in the member list
  });
  host.spawn("alive", [](Process self) -> Co<void> {
    self.join_group(7);
    auto env = co_await self.receive();
    self.reply(env, msg::make_reply(ReplyCode::kOk));
  });
  run_client(dom, host, [](Process self) -> Co<void> {
    co_await self.delay(kMillisecond);
    const auto reply = co_await self.send_to_group(msg::Message{}, 7);
    EXPECT_EQ(reply.reply_code(), ReplyCode::kOk);
  });
}

TEST(Group, PausedMemberNeverRunsASupersededRequest) {
  // No FaultPlan: the transaction rule is the kernel's own.  The member's
  // host is paused past the group timeout, so the multicast copy lands
  // only after the client has timed out of that Send.  It answers nothing
  // and must be dropped on arrival, never executed.
  Domain dom;
  auto& ws1 = dom.add_host("ws1");
  auto& ws2 = dom.add_host("ws2");
  constexpr GroupId kGroup = 42;
  std::uint32_t served = 0;
  const ProcessId member =
      ws2.spawn("member", [&served](Process self) -> Co<void> {
        self.join_group(kGroup);
        for (;;) {
          auto env = co_await self.receive();
          msg::Message reply = msg::make_reply(ReplyCode::kOk);
          reply.set_u32(4, ++served);
          self.reply(env, reply);
        }
      });
  run_client(dom, ws1, [&, member](Process self) -> Co<void> {
    co_await self.delay(kMillisecond);  // let the member join
    ws2.pause();
    const auto timed_out = co_await self.send_to_group(msg::Message{}, kGroup);
    EXPECT_EQ(timed_out.reply_code(), ReplyCode::kTimeout);
    ws2.resume();
    co_await self.delay(50 * kMillisecond);  // let the stashed copy land
    EXPECT_EQ(served, 0u);
    // The member itself is fine: a current request is executed once.
    const auto reply = co_await self.send(msg::Message{}, member);
    EXPECT_EQ(reply.reply_code(), ReplyCode::kOk);
    EXPECT_EQ(reply.u32(4), 1u);
  });
  EXPECT_EQ(dom.fault_plan(), nullptr);
}

// --- crash behaviour ---------------------------------------------------------

TEST(Crash, BlockedSenderGetsNoReplyWhenServerHostDies) {
  Domain dom;
  auto& ws1 = dom.add_host("ws1");
  auto& fs1 = dom.add_host("fs1");
  const ProcessId server = fs1.spawn("server", [](Process self) -> Co<void> {
    (void)co_await self.receive();
    co_await self.delay(sim::kSecond);  // "hangs" holding the request
    co_return;
  });
  bool replied = false;
  ws1.spawn("client", [&, server](Process self) -> Co<void> {
    const auto reply = co_await self.send(msg::Message{}, server);
    replied = true;
    EXPECT_EQ(reply.reply_code(), ReplyCode::kNoReply);
  });
  dom.loop().schedule_at(10 * kMillisecond, [&] { fs1.crash(); });
  dom.run();
  EXPECT_TRUE(replied);
  EXPECT_EQ(dom.process_failures(), 0u) << dom.first_failure();
}

TEST(Crash, InFlightMessageToCrashedHostGetsNoReply) {
  Domain dom;
  auto& ws1 = dom.add_host("ws1");
  auto& fs1 = dom.add_host("fs1");
  const ProcessId server = fs1.spawn("server", test::echo_server);
  bool replied = false;
  ws1.spawn("client", [&, server](Process self) -> Co<void> {
    co_await self.delay(5 * kMillisecond);
    // Host crashes while this message is on the wire.
    const auto reply = co_await self.send(msg::Message{}, server);
    replied = true;
    EXPECT_EQ(reply.reply_code(), ReplyCode::kNoReply);
  });
  dom.loop().schedule_at(5 * kMillisecond + dom.params().remote_hop / 2,
                         [&] { fs1.crash(); });
  dom.run();
  EXPECT_TRUE(replied);
  EXPECT_EQ(dom.process_failures(), 0u) << dom.first_failure();
}

TEST(Crash, RestartAllowsRespawnAndRebinding) {
  Domain dom;
  auto& ws1 = dom.add_host("ws1");
  auto& fs1 = dom.add_host("fs1");
  const ProcessId old_server = fs1.spawn("storage-v1", echo_server);
  ProcessId new_server;
  ws1.spawn("client", [&](Process self) -> Co<void> {
    self.set_pid(ServiceId::kStorageServer, old_server, Scope::kBoth);
    auto found = co_await self.get_pid(ServiceId::kStorageServer, Scope::kBoth);
    EXPECT_EQ(found, old_server);
    co_await self.delay(20 * kMillisecond);  // crash + restart happen here
    // Old binding is gone with the crash; service must be re-resolved.
    found = co_await self.get_pid(ServiceId::kStorageServer, Scope::kBoth);
    EXPECT_TRUE(found.valid());
    EXPECT_NE(found, old_server);
    EXPECT_EQ(found, new_server);
    const auto reply = co_await self.send(msg::Message{}, found);
    EXPECT_EQ(reply.reply_code(), ReplyCode::kOk);
  });
  dom.loop().schedule_at(5 * kMillisecond, [&] { fs1.crash(); });
  dom.loop().schedule_at(10 * kMillisecond, [&] {
    fs1.restart();
    new_server = fs1.spawn("storage-v2", echo_server);
    fs1.register_service(ServiceId::kStorageServer, new_server, Scope::kBoth);
  });
  dom.run();
  EXPECT_EQ(dom.process_failures(), 0u) << dom.first_failure();
}

TEST(Crash, CrashedHostCannotSpawn) {
  Domain dom;
  auto& host = dom.add_host("ws1");
  host.crash();
  EXPECT_THROW(host.spawn("p", [](Process) -> Co<void> { co_return; }),
               std::logic_error);
}

// --- determinism -------------------------------------------------------------

TEST(Determinism, IdenticalSeedsGiveIdenticalTimelines) {
  auto run_once = [](std::uint64_t seed) {
    Domain dom(CalibrationParams::SunWorkstation3Mbit(), seed);
    auto& ws1 = dom.add_host("ws1");
    auto& ws2 = dom.add_host("ws2");
    const ProcessId server = ws2.spawn("server", echo_server);
    sim::SimTime finish = 0;
    ws1.spawn("client", [&, server](Process self) -> Co<void> {
      for (int i = 0; i < 10; ++i) {
        (void)co_await self.send(msg::Message{}, server);
        co_await self.delay(static_cast<sim::SimDuration>(
            self.domain().rng().uniform(100, 2000)) * sim::kMicrosecond);
      }
      finish = self.now();
    });
    dom.run();
    return std::pair{finish, dom.loop().events_executed()};
  };
  EXPECT_EQ(run_once(11), run_once(11));
  EXPECT_NE(run_once(11).first, run_once(12).first);
}

}  // namespace
}  // namespace v::ipc
