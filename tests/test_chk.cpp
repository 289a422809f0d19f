// V-check tests: the sim-aware race detector (chk/shared_cell and the
// per-(ctx,leaf) gate check against the server's gate table) and the
// protocol conformance lint at the kernel Send/Reply boundary.
//
// The detection tests plant real bugs — an ungated name-space mutation, a
// read borrow held across a suspension point, a non-standard reply code, a
// malformed CSname header — and assert the report names the right parties.
// The clean tests run ordinary workloads (and a contended gate handoff) and
// assert the instrumentation is silent: no failures, no violations.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chk/protocol_lint.hpp"
#include "chk/shared_cell.hpp"
#include "msg/csname.hpp"
#include "msg/request_codes.hpp"
#include "naming/protocol.hpp"
#include "v_fixture.hpp"

namespace v {
namespace {

using sim::Co;
using sim::kMillisecond;
using test::VFixture;

// Non-CSname server-specific poke used to plant an ungated mutation.
constexpr std::uint16_t kUngatedPoke = 0x0399;

/// A CSNH server with a planted concurrency bug: kUngatedPoke mutates the
/// (ctx, leaf) name entry WITHOUT acquiring the mutation gate, while
/// create_object (correctly gated by the base) holds its gate across a long
/// suspension — so a poke landing mid-create is exactly the lost-update
/// race the detector exists to catch.
class RacyServer : public naming::CsnhServer {
 public:
  explicit RacyServer(naming::TeamConfig team) : CsnhServer(team) {}

 protected:
  sim::Co<LookupResult> lookup(ipc::Process& /*self*/,
                               naming::ContextId /*ctx*/,
                               std::string_view /*component*/) override {
    co_return LookupResult::missing();
  }

  sim::Co<ReplyCode> create_object(ipc::Process& self, naming::ContextId ctx,
                                   std::string_view leaf,
                                   std::uint16_t /*mode*/) override {
    note_name_write(self, ctx, leaf);
    co_await self.delay(10 * kMillisecond);  // hold the gate across a park
    co_return ReplyCode::kOk;
  }

  sim::Co<msg::Message> handle_custom(ipc::Process& self,
                                      ipc::Envelope& env) override {
    if (env.request.code() == kUngatedPoke) {
      // The planted bug: handle_custom holds no (ctx, leaf) gate.
      note_name_write(self, naming::kDefaultContext, "contested");
      co_return msg::make_reply(ReplyCode::kOk);
    }
    co_return co_await CsnhServer::handle_custom(self, env);
  }
};

/// A CSNH server with a planted conformance bug: replies to its custom op
/// with a code far outside the registered ReplyCode set.
class BadReplyServer : public naming::CsnhServer {
 protected:
  sim::Co<LookupResult> lookup(ipc::Process& /*self*/,
                               naming::ContextId /*ctx*/,
                               std::string_view /*component*/) override {
    co_return LookupResult::missing();
  }

  sim::Co<msg::Message> handle_custom(ipc::Process& /*self*/,
                                      ipc::Envelope& /*env*/) override {
    msg::Message weird;
    weird.set_code(0x7777);  // not a ReplyCode
    co_return weird;
  }
};

// --- race detector: planted gate violation ---------------------------------

TEST(ChkRace, PlantedUngatedMutationNamesBothProcesses) {
  ipc::Domain dom(ipc::CalibrationParams::SunWorkstation3Mbit());
  auto& host = dom.add_host("ws");
  RacyServer racy({.workers = 2, .queue_cap = 16});
  const auto racy_pid =
      host.spawn("racy", [&](ipc::Process p) { return racy.run(p); });
  // Worker A: a gated create of "contested" parked mid-operation.
  host.spawn("creator", [&](ipc::Process self) -> Co<void> {
    const std::string name = "contested";
    auto req = msg::cs::make_request(
        msg::kCreateName, naming::kDefaultContext,
        static_cast<std::uint16_t>(name.size()));
    ipc::Segments segs;
    segs.read = std::as_bytes(std::span(name.data(), name.size()));
    (void)co_await self.send(req, racy_pid, segs);
  });
  // Worker B: the ungated poke lands while A still holds the gate.
  host.spawn("poker", [&](ipc::Process self) -> Co<void> {
    co_await self.delay(2 * kMillisecond);
    msg::Message poke;
    poke.set_code(kUngatedPoke);
    (void)co_await self.send(poke, racy_pid);
  });
  dom.run();

  ASSERT_GE(dom.process_failures(), 1u);
  const std::string& report = dom.first_failure();
  EXPECT_NE(report.find("race detector"), std::string::npos) << report;
  EXPECT_NE(report.find("ungated (ctx,leaf) mutation"), std::string::npos)
      << report;
  EXPECT_NE(report.find("\"contested\""), std::string::npos) << report;
  EXPECT_NE(report.find("has held the mutation gate since"),
            std::string::npos)
      << report;
  // Both sim processes — the mutator AND the gate holder — are named, and
  // they are distinct team members.
  const auto first = report.find("racy-worker.");
  ASSERT_NE(first, std::string::npos) << report;
  EXPECT_NE(report.find("racy-worker.", first + 1), std::string::npos)
      << report;
}

TEST(ChkRace, UngatedMutationWithNoHolderIsCaught) {
  ipc::Domain dom(ipc::CalibrationParams::SunWorkstation3Mbit());
  auto& host = dom.add_host("ws");
  RacyServer racy({.workers = 1, .queue_cap = 16});
  const auto racy_pid =
      host.spawn("racy", [&](ipc::Process p) { return racy.run(p); });
  host.spawn("poker", [&](ipc::Process self) -> Co<void> {
    msg::Message poke;
    poke.set_code(kUngatedPoke);
    (void)co_await self.send(poke, racy_pid);
  });
  dom.run();

  ASSERT_GE(dom.process_failures(), 1u);
  const std::string& report = dom.first_failure();
  EXPECT_NE(report.find("without any process holding the mutation gate"),
            std::string::npos)
      << report;
}

TEST(ChkRace, ContendedGateHandoffPassesTheCheck) {
  // Two creates of one leaf: the first parks holding the gate, the second
  // queues behind it and is granted the gate by FIFO handoff.  The handoff
  // must make the waiter the recorded holder, or its own gated create
  // would be reported as ungated.
  ipc::Domain dom(ipc::CalibrationParams::SunWorkstation3Mbit());
  auto& host = dom.add_host("ws");
  RacyServer racy({.workers = 2, .queue_cap = 16});
  const auto racy_pid =
      host.spawn("racy", [&](ipc::Process p) { return racy.run(p); });
  std::vector<sim::SimTime> done_at;
  for (int c = 0; c < 2; ++c) {
    host.spawn("creator", [&](ipc::Process self) -> Co<void> {
      const std::string name = "contested";
      auto req = msg::cs::make_request(
          msg::kCreateName, naming::kDefaultContext,
          static_cast<std::uint16_t>(name.size()));
      ipc::Segments segs;
      segs.read = std::as_bytes(std::span(name.data(), name.size()));
      const auto reply = co_await self.send(req, racy_pid, segs);
      EXPECT_EQ(reply.reply_code(), ReplyCode::kOk);
      done_at.push_back(self.domain().now());
    });
  }
  dom.run();

  EXPECT_EQ(dom.process_failures(), 0u) << dom.first_failure();
  ASSERT_EQ(done_at.size(), 2u);
  // Serialized by the gate: the second create ran its whole 10 ms park
  // after the first released.
  EXPECT_GE(done_at[1] - done_at[0], 10 * kMillisecond);
}

// --- race detector: the unmodified tree passes clean ------------------------

TEST(ChkRace, GatedMutationsPassCleanAndLedgerIsLive) {
  VFixture fx(ipc::CalibrationParams::SunWorkstation3Mbit(),
              servers::DiskModel::kMemory, {.workers = 4, .queue_cap = 64});
  fx.run_client([](ipc::Process /*self*/, svc::Rt rt) -> Co<void> {
    EXPECT_EQ(co_await rt.create("tmp/gated.txt", 0), ReplyCode::kOk);
    EXPECT_EQ(co_await rt.remove("tmp/gated.txt"), ReplyCode::kOk);
  });
}

// --- race detector: SharedCell borrows across suspension --------------------

TEST(ChkRace, ReaderHeldAcrossSuspensionIsCaught) {
  ipc::Domain dom(ipc::CalibrationParams::SunWorkstation3Mbit());
  auto& host = dom.add_host("ws");
  chk::SharedCell<int> cell("test.counter");
  host.spawn("reader-proc", [&](ipc::Process self) -> Co<void> {
    auto borrow = cell.read(self);
    co_await self.delay(5 * kMillisecond);  // the bug: borrow spans a park
    EXPECT_EQ(*borrow, 0);
  });
  host.spawn("writer-proc", [&](ipc::Process self) -> Co<void> {
    co_await self.delay(1 * kMillisecond);
    auto borrow = cell.write(self);  // throws: overlaps the parked read
    *borrow = 1;
  });
  dom.run();

  EXPECT_EQ(dom.process_failures(), 1u);
  const std::string& report = dom.first_failure();
  EXPECT_NE(report.find("race detector"), std::string::npos) << report;
  EXPECT_NE(report.find("test.counter"), std::string::npos) << report;
  EXPECT_NE(report.find("reader-proc"), std::string::npos) << report;
  EXPECT_NE(report.find("writer-proc"), std::string::npos) << report;
  EXPECT_NE(report.find("held across a suspension point"), std::string::npos)
      << report;
}

TEST(ChkRace, MomentaryAccessesNeverConflict) {
  ipc::Domain dom(ipc::CalibrationParams::SunWorkstation3Mbit());
  auto& host = dom.add_host("ws");
  chk::SharedCell<int> cell("test.counter");
  for (int p = 0; p < 4; ++p) {
    host.spawn("proc" + std::to_string(p), [&](ipc::Process self) -> Co<void> {
      for (int i = 0; i < 8; ++i) {
        {
          auto borrow = cell.write(self);
          *borrow += 1;
        }
        co_await self.delay(1 * kMillisecond);
        auto check = cell.read(self);
        EXPECT_GT(*check, 0);
      }
    });
  }
  dom.run();
  EXPECT_EQ(dom.process_failures(), 0u) << dom.first_failure();
  EXPECT_EQ(cell.raw(), 32);
}

// --- protocol lint: malformed client requests ------------------------------

TEST(ChkLint, NameIndexPastLengthRejectedWithDecodedDump) {
  VFixture fx;
  fx.run_client([&](ipc::Process self, svc::Rt /*rt*/) -> Co<void> {
    const std::string name = "tmp";
    auto bad = msg::cs::make_request(
        msg::kQueryName, naming::kDefaultContext,
        static_cast<std::uint16_t>(name.size()));
    msg::cs::set_name_index(bad, 9);  // 9 > namelength 3
    ipc::Segments segs;
    segs.read = std::as_bytes(std::span(name.data(), name.size()));
    const auto reply = co_await self.send(bad, fx.alpha_pid, segs);
    // Rejected by the kernel-side lint, not the server.
    EXPECT_EQ(reply.reply_code(), ReplyCode::kBadArgs);
  });
  EXPECT_EQ(fx.dom.lint().counters().client_rejects, 1u);
  const std::string& dump = fx.dom.lint().first_dump();
  EXPECT_NE(dump.find("nameindex exceeds namelength"), std::string::npos)
      << dump;
  // The dump decodes the offending header field by field.
  EXPECT_NE(dump.find("kQueryName"), std::string::npos) << dump;
  EXPECT_NE(dump.find("nameindex    = 9"), std::string::npos) << dump;
  EXPECT_NE(dump.find("namelength   = 3"), std::string::npos) << dump;
}

TEST(ChkLint, NameBytesAbsentRejected) {
  VFixture fx;
  fx.run_client([&](ipc::Process self, svc::Rt /*rt*/) -> Co<void> {
    // Claims an 8-byte name but attaches no read segment.
    auto bad = msg::cs::make_request(msg::kQueryName,
                                     naming::kDefaultContext, 8);
    const auto reply = co_await self.send(bad, fx.alpha_pid);
    EXPECT_EQ(reply.reply_code(), ReplyCode::kBadArgs);
  });
  EXPECT_EQ(fx.dom.lint().counters().client_rejects, 1u);
  EXPECT_NE(fx.dom.lint().first_dump().find(
                "name bytes absent from sender segment"),
            std::string::npos)
      << fx.dom.lint().first_dump();
}

TEST(ChkLint, SubProtocolRequestCodeRejected) {
  VFixture fx;
  fx.run_client([&](ipc::Process self, svc::Rt /*rt*/) -> Co<void> {
    msg::Message bad;
    bad.set_code(0x0042);  // below every protocol code range
    const auto reply = co_await self.send(bad, fx.alpha_pid);
    EXPECT_EQ(reply.reply_code(), ReplyCode::kBadArgs);
  });
  EXPECT_EQ(fx.dom.lint().counters().client_rejects, 1u);
  EXPECT_NE(fx.dom.lint().first_dump().find(
                "request code below protocol ranges"),
            std::string::npos)
      << fx.dom.lint().first_dump();
}

TEST(ChkLint, WellFormedTrafficPassesWithZeroRejects) {
  VFixture fx;
  fx.run_client([](ipc::Process /*self*/, svc::Rt rt) -> Co<void> {
    auto desc = co_await rt.query("usr/mann/naming.mss");
    EXPECT_TRUE(desc.ok());
    EXPECT_EQ(co_await rt.create("tmp/ok.txt", 0), ReplyCode::kOk);
    EXPECT_EQ(co_await rt.remove("tmp/ok.txt"), ReplyCode::kOk);
  });
  EXPECT_GT(fx.dom.lint().counters().requests_checked, 0u);
  EXPECT_EQ(fx.dom.lint().counters().client_rejects, 0u);
  EXPECT_EQ(fx.dom.lint().counters().server_violations, 0u);
  EXPECT_TRUE(fx.dom.lint().first_dump().empty())
      << fx.dom.lint().first_dump();
}

// --- protocol lint: server-side conformance --------------------------------

TEST(ChkLint, NonStandardReplyCodeCountedAndStillDelivered) {
  ipc::Domain dom(ipc::CalibrationParams::SunWorkstation3Mbit());
  auto& host = dom.add_host("ws");
  BadReplyServer bad;
  const auto bad_pid =
      host.spawn("bad-server", [&](ipc::Process p) { return bad.run(p); });
  std::uint16_t delivered_code = 0;
  host.spawn("client", [&](ipc::Process self) -> Co<void> {
    msg::Message req;
    req.set_code(0x0350);  // any misc op -> handle_custom
    const auto reply = co_await self.send(req, bad_pid);
    delivered_code = reply.code();
  });
  dom.run();

  EXPECT_EQ(dom.process_failures(), 0u) << dom.first_failure();
  // The violation is recorded AND the reply still reaches the client, so
  // the non-conformance is visible end to end.
  EXPECT_EQ(delivered_code, 0x7777);
  EXPECT_EQ(dom.lint().counters().server_violations, 1u);
  const std::string& dump = dom.lint().first_dump();
  EXPECT_NE(dump.find("non-standard reply code"), std::string::npos) << dump;
  EXPECT_NE(dump.find("bad-server"), std::string::npos) << dump;
}

// --- protocol lint: the outstanding-request ledger -------------------------

/// A non-CSname request (no header fields to check): only the ledger acts.
msg::Message ledger_request() {
  msg::Message req;
  req.set_code(0x0350);
  return req;
}

TEST(ChkLint, DuplicateReplyIsCounted) {
  chk::ProtocolLint lint;
  constexpr std::uint32_t kServer = 0x10007;
  constexpr std::uint32_t kClient = 0x20009;
  lint.register_server(kServer, "dup-server", nullptr);
  EXPECT_FALSE(lint.check_request(ledger_request(), kClient, 0, kServer, 1)
                   .has_value());
  const msg::Message reply = msg::make_reply(ReplyCode::kOk);
  lint.check_reply(reply, kServer, kClient, 2);
  EXPECT_EQ(lint.counters().duplicate_replies, 0u);
  EXPECT_TRUE(lint.first_dump().empty()) << lint.first_dump();
  // The second reply to the one request settles nothing.
  lint.check_reply(reply, kServer, kClient, 3);
  EXPECT_EQ(lint.counters().replies_checked, 2u);
  EXPECT_EQ(lint.counters().duplicate_replies, 1u);
  const std::string& dump = lint.first_dump();
  EXPECT_NE(dump.find("duplicate reply"), std::string::npos) << dump;
  EXPECT_NE(dump.find("'dup-server'"), std::string::npos) << dump;

  // A request delivered twice (a duplicated datagram) owes two replies.
  for (std::uint64_t t = 4; t < 6; ++t) {
    EXPECT_FALSE(lint.check_request(ledger_request(), kClient, 0, kServer, t)
                     .has_value());
  }
  lint.check_reply(reply, kServer, kClient, 6);
  lint.check_reply(reply, kServer, kClient, 7);
  EXPECT_EQ(lint.counters().duplicate_replies, 1u);
  lint.check_reply(reply, kServer, kClient, 8);
  EXPECT_EQ(lint.counters().duplicate_replies, 2u);
}

TEST(ChkLint, ForgetDropsOnlyThatServersLedger) {
  chk::ProtocolLint lint;
  constexpr std::uint32_t kServerA = 0x10007;
  constexpr std::uint32_t kServerB = 0x10008;
  constexpr std::uint32_t kClient = 0x20009;
  lint.register_server(kServerA, "server-a", nullptr);
  lint.register_server(kServerB, "server-b", nullptr);
  // One client with a request pending at each server.
  EXPECT_FALSE(lint.check_request(ledger_request(), kClient, 0, kServerA, 1)
                   .has_value());
  EXPECT_FALSE(lint.check_request(ledger_request(), kClient, 0, kServerB, 2)
                   .has_value());
  lint.forget(kServerA);
  // b still owes its reply, and only one.
  const msg::Message reply = msg::make_reply(ReplyCode::kOk);
  lint.check_reply(reply, kServerB, kClient, 3);
  EXPECT_EQ(lint.counters().duplicate_replies, 0u);
  EXPECT_TRUE(lint.first_dump().empty()) << lint.first_dump();
  lint.check_reply(reply, kServerB, kClient, 4);
  EXPECT_EQ(lint.counters().duplicate_replies, 1u);
  // a is no longer registered: its replies are not checked at all.
  lint.check_reply(reply, kServerA, kClient, 5);
  EXPECT_EQ(lint.counters().replies_checked, 2u);
  // A later incarnation on a's pid starts with an empty ledger.
  lint.register_server(kServerA, "server-a", nullptr);
  lint.check_reply(reply, kServerA, kClient, 6);
  EXPECT_EQ(lint.counters().duplicate_replies, 2u);
}

// --- protocol lint: context resolvability is a statistic, never an error ---

TEST(ChkLint, StaleContextIdsAreCountedNotRejected) {
  VFixture fx;
  fx.run_client([&](ipc::Process self, svc::Rt /*rt*/) -> Co<void> {
    const std::string name = "x";
    // Unresolvable context, never forwarded: a confused client.
    auto fresh = msg::cs::make_request(msg::kQueryName, 0xdead0001, 1);
    ipc::Segments segs;
    segs.read = std::as_bytes(std::span(name.data(), name.size()));
    const auto r1 = co_await self.send(fresh, fx.alpha_pid, segs);
    // Delivered to the server (NOT lint-rejected); the server answers per
    // the paper's stale-context protocol.
    EXPECT_EQ(r1.reply_code(), ReplyCode::kInvalidContext);

    // Same id but already forwarded once: a stale cross-server pointer.
    auto stale = msg::cs::make_request(msg::kQueryName, 0xdead0001, 1);
    msg::cs::set_forward_count(stale, 1);
    const auto r2 = co_await self.send(stale, fx.alpha_pid, segs);
    EXPECT_EQ(r2.reply_code(), ReplyCode::kInvalidContext);
  });
  EXPECT_EQ(fx.dom.lint().counters().client_rejects, 0u);
  EXPECT_EQ(fx.dom.lint().counters().invalid_context_requests, 1u);
  EXPECT_EQ(fx.dom.lint().counters().stale_context_forwards, 1u);
}

}  // namespace
}  // namespace v
