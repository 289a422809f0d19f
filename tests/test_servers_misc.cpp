// Tests for the remaining standard servers: time, terminal, printer,
// internet (TCP), team (program loading), and mail — each a distinct kind
// of name space living behind the same protocol.
#include <gtest/gtest.h>

#include "naming/protocol.hpp"
#include "servers/internet_server.hpp"
#include "servers/mail_server.hpp"
#include "servers/printer_server.hpp"
#include "servers/team_server.hpp"
#include "servers/terminal_server.hpp"
#include "servers/time_server.hpp"
#include "v_fixture.hpp"

namespace v {
namespace {

using naming::DescriptorType;
using naming::wire::kOpenCreate;
using naming::wire::kOpenRead;
using naming::wire::kOpenWrite;
using sim::Co;
using sim::kMillisecond;
using sim::kSecond;
using test::VFixture;

std::string to_str(const std::vector<std::byte>& bytes) {
  return std::string(reinterpret_cast<const char*>(bytes.data()),
                     bytes.size());
}

std::span<const std::byte> as_span(std::string_view text) {
  return std::as_bytes(std::span(text.data(), text.size()));
}

// --- time server -------------------------------------------------------------

TEST(TimeServer, ReturnsSimulatedSeconds) {
  VFixture fx;
  fx.fs1.spawn("time", servers::time_server);
  fx.run_client([](ipc::Process self, svc::Rt) -> Co<void> {
    co_await self.delay(3 * kSecond);
    auto t = co_await servers::get_time(self);
    EXPECT_TRUE(t.ok());
    EXPECT_EQ(t.value(), 3u);
    co_await self.delay(2 * kSecond);
    t = co_await servers::get_time(self);
    EXPECT_TRUE(t.ok());
    EXPECT_EQ(t.value(), 5u);
  });
}

TEST(TimeServer, NoServerMeansNoReply) {
  VFixture fx;
  fx.run_client([](ipc::Process self, svc::Rt) -> Co<void> {
    auto t = co_await servers::get_time(self);
    EXPECT_EQ(t.code(), ReplyCode::kNoReply);
  });
}

// --- terminal server -----------------------------------------------------------

TEST(TerminalServer, CreateWriteAndListTerminals) {
  VFixture fx;
  servers::TerminalServer terms;
  const auto vt_pid =
      fx.ws1.spawn("vgts", [&](ipc::Process p) { return terms.run(p); });
  fx.run_client([&](ipc::Process, svc::Rt rt) -> Co<void> {
    rt.set_current({vt_pid, naming::kDefaultContext});
    auto opened = co_await rt.open("vt01", kOpenWrite | kOpenCreate);
    EXPECT_TRUE(opened.ok());
    if (!opened.ok()) co_return;
    svc::File vt = opened.take();
    auto wrote = co_await vt.write_block(0, as_span("login: mann\n"));
    EXPECT_TRUE(wrote.ok());
    wrote = co_await vt.write_block(0, as_span("% ls\n"));
    EXPECT_TRUE(wrote.ok());  // appends despite block 0: stream semantics
    EXPECT_EQ(co_await vt.close(), ReplyCode::kOk);

    auto records = co_await rt.list_context("");
    EXPECT_TRUE(records.ok());
    if (records.ok()) {
      EXPECT_EQ(records.value().size(), 1u);
      EXPECT_EQ(records.value()[0].type, DescriptorType::kTerminal);
      EXPECT_EQ(records.value()[0].name, "vt01");
      EXPECT_EQ(records.value()[0].size,
                std::string("login: mann\n% ls\n").size());
    }
  });
  EXPECT_EQ(terms.transcript("vt01").value(), "login: mann\n% ls\n");
}

// --- printer server ------------------------------------------------------------

TEST(PrinterServer, JobLifecycleThroughStatuses) {
  VFixture fx;
  servers::PrinterServer printer(/*bytes_per_second=*/100);
  const auto pr_pid =
      fx.fs2.spawn("printer", [&](ipc::Process p) { return printer.run(p); });
  fx.run_client([&](ipc::Process self, svc::Rt rt) -> Co<void> {
    rt.set_current({pr_pid, naming::kDefaultContext});
    auto opened = co_await rt.open("thesis.ps", kOpenWrite | kOpenCreate);
    EXPECT_TRUE(opened.ok());
    if (!opened.ok()) co_return;
    svc::File job = opened.take();
    // 50 bytes at 100 B/s = 0.5 s of printing.
    const std::string fifty(50, 'x');
    auto wrote = co_await job.write_block(0, as_span(fifty));
    EXPECT_TRUE(wrote.ok());
    EXPECT_EQ(co_await job.close(), ReplyCode::kOk);

    auto desc = co_await rt.query("thesis.ps");
    EXPECT_TRUE(desc.ok());
    if (desc.ok()) {
      EXPECT_EQ(desc.value().type, DescriptorType::kPrintJob);
      EXPECT_EQ(desc.value().size, 50u);
    }
    // Mid-print: cancellation refused.
    co_await self.delay(100 * kMillisecond);
    EXPECT_EQ(co_await rt.remove("thesis.ps"), ReplyCode::kBadState);
    // After completion: status done, removal allowed.
    co_await self.delay(kSecond);
    auto done = co_await rt.query("thesis.ps");
    EXPECT_TRUE(done.ok());
    if (done.ok()) {
      EXPECT_EQ(done.value().context_id,
                static_cast<std::uint32_t>(
                    servers::PrinterServer::JobStatus::kDone));
    }
    EXPECT_EQ(co_await rt.remove("thesis.ps"), ReplyCode::kOk);
  });
}

TEST(PrinterServer, SpoolIsWriteOnly) {
  VFixture fx;
  servers::PrinterServer printer;
  const auto pr_pid =
      fx.fs2.spawn("printer", [&](ipc::Process p) { return printer.run(p); });
  fx.run_client([&](ipc::Process, svc::Rt rt) -> Co<void> {
    rt.set_current({pr_pid, naming::kDefaultContext});
    auto opened = co_await rt.open("job1", kOpenWrite | kOpenCreate);
    EXPECT_TRUE(opened.ok());
    if (!opened.ok()) co_return;
    svc::File job = opened.take();
    std::vector<std::byte> buf(16);
    auto got = co_await job.read_block(0, buf);
    EXPECT_EQ(got.code(), ReplyCode::kNotReadable);
    EXPECT_EQ(co_await job.close(), ReplyCode::kOk);
  });
}

TEST(PrinterServer, QueueSerializes) {
  // Two jobs: the second starts only after the first finishes.
  VFixture fx;
  servers::PrinterServer printer(/*bytes_per_second=*/100);
  const auto pr_pid =
      fx.fs2.spawn("printer", [&](ipc::Process p) { return printer.run(p); });
  fx.run_client([&](ipc::Process self, svc::Rt rt) -> Co<void> {
    rt.set_current({pr_pid, naming::kDefaultContext});
    for (const char* name : {"a.ps", "b.ps"}) {
      auto opened = co_await rt.open(name, kOpenWrite | kOpenCreate);
      EXPECT_TRUE(opened.ok());
      if (!opened.ok()) co_return;
      svc::File job = opened.take();
      const std::string hundred(100, 'x');
      auto wrote = co_await job.write_block(0, as_span(hundred));
      EXPECT_TRUE(wrote.ok());
      EXPECT_EQ(co_await job.close(), ReplyCode::kOk);
    }
    co_await self.delay(500 * kMillisecond);
    // a.ps (queued first) is printing; b.ps is still queued behind it.
    EXPECT_EQ(printer.status("a.ps", self.now()).value(),
              servers::PrinterServer::JobStatus::kPrinting);
    EXPECT_EQ(printer.status("b.ps", self.now()).value(),
              servers::PrinterServer::JobStatus::kQueued);
  });
}

// --- internet server ------------------------------------------------------------

TEST(InternetServer, ConnectionsAreNamedObjects) {
  VFixture fx;
  servers::InternetServer inet;
  const auto inet_pid =
      fx.fs2.spawn("inet", [&](ipc::Process p) { return inet.run(p); });
  fx.run_client([&](ipc::Process, svc::Rt rt) -> Co<void> {
    rt.set_current({inet_pid, naming::kDefaultContext});
    auto opened =
        co_await rt.open("su-score.arpa:23", kOpenRead | kOpenWrite |
                                                 kOpenCreate);
    EXPECT_TRUE(opened.ok());
    if (!opened.ok()) co_return;
    svc::File conn = opened.take();
    auto wrote = co_await conn.write_block(0, as_span("PING"));
    EXPECT_TRUE(wrote.ok());
    std::vector<std::byte> buf(4);
    auto got = co_await conn.read_block(0, buf);
    EXPECT_TRUE(got.ok());
    if (got.ok()) {
      EXPECT_EQ(std::memcmp(buf.data(), "PING", 4), 0);  // loopback echo
    }
    EXPECT_EQ(co_await conn.close(), ReplyCode::kOk);
    // Connections show up in the context directory.
    auto records = co_await rt.list_context("");
    EXPECT_TRUE(records.ok());
    if (records.ok()) {
      EXPECT_EQ(records.value().size(), 1u);
      EXPECT_EQ(records.value()[0].type, DescriptorType::kConnection);
      EXPECT_EQ(records.value()[0].name, "su-score.arpa:23");
    }
  });
}

TEST(InternetServer, MalformedEndpointRejected) {
  VFixture fx;
  servers::InternetServer inet;
  const auto inet_pid =
      fx.fs2.spawn("inet", [&](ipc::Process p) { return inet.run(p); });
  fx.run_client([&](ipc::Process, svc::Rt rt) -> Co<void> {
    rt.set_current({inet_pid, naming::kDefaultContext});
    EXPECT_EQ(co_await rt.create("no-port-here"), ReplyCode::kBadArgs);
    EXPECT_EQ(co_await rt.create("host:12x"), ReplyCode::kBadArgs);
    EXPECT_EQ(co_await rt.create(":80"), ReplyCode::kBadArgs);
  });
}

// --- mail server ----------------------------------------------------------------

TEST(MailServer, ForeignSyntaxNamesWork) {
  VFixture fx;
  servers::MailServer mail;
  const auto mail_pid =
      fx.fs2.spawn("mail", [&](ipc::Process p) { return mail.run(p); });
  fx.run_client([&](ipc::Process, svc::Rt rt) -> Co<void> {
    rt.set_current({mail_pid, naming::kDefaultContext});
    // The whole ARPA mailbox name is one component; '/' is not special.
    EXPECT_EQ(co_await rt.create("cheriton@su-score.ARPA"), ReplyCode::kOk);
    auto opened = co_await rt.open("cheriton@su-score.ARPA",
                                   kOpenRead | kOpenWrite);
    EXPECT_TRUE(opened.ok());
    if (!opened.ok()) co_return;
    svc::File box = opened.take();
    auto sent = co_await box.write_block(0, as_span("Naming paper accepted"));
    EXPECT_TRUE(sent.ok());
    sent = co_await box.write_block(0, as_span("Camera-ready due 5/1"));
    EXPECT_TRUE(sent.ok());
    auto bytes = co_await box.read_all();
    EXPECT_TRUE(bytes.ok());
    if (bytes.ok()) {
      EXPECT_EQ(to_str(bytes.value()),
                "Naming paper accepted\nCamera-ready due 5/1\n");
    }
    EXPECT_EQ(co_await box.close(), ReplyCode::kOk);
    auto desc = co_await rt.query("cheriton@su-score.ARPA");
    EXPECT_TRUE(desc.ok());
    if (desc.ok()) {
      EXPECT_EQ(desc.value().type, DescriptorType::kMailbox);
      EXPECT_EQ(desc.value().context_id, 2u);  // message count
      EXPECT_EQ(desc.value().owner, "cheriton");
    }
  });
  EXPECT_EQ(mail.message_count("cheriton@su-score.ARPA").value(), 2u);
}

TEST(MailServer, InvalidMailboxNamesRejected) {
  VFixture fx;
  servers::MailServer mail;
  const auto mail_pid =
      fx.fs2.spawn("mail", [&](ipc::Process p) { return mail.run(p); });
  fx.run_client([&](ipc::Process, svc::Rt rt) -> Co<void> {
    rt.set_current({mail_pid, naming::kDefaultContext});
    EXPECT_EQ(co_await rt.create("no-at-sign"), ReplyCode::kBadArgs);
    EXPECT_EQ(co_await rt.create("two@at@signs"), ReplyCode::kBadArgs);
    EXPECT_EQ(co_await rt.create("@host"), ReplyCode::kBadArgs);
  });
}

// --- team server -----------------------------------------------------------------

TEST(TeamServer, LoadsProgramThroughPrefixedName) {
  VFixture fx;
  servers::TeamServer team({fx.alpha_pid, naming::kDefaultContext});
  const auto team_pid =
      fx.ws1.spawn("team", [&](ipc::Process p) { return team.run(p); });
  fx.run_client([&](ipc::Process self, svc::Rt rt) -> Co<void> {
    auto loaded =
        co_await servers::TeamServer::load_program(self, team_pid,
                                                   "[bin]edit");
    EXPECT_TRUE(loaded.ok());
    // The running program appears in the team server's context directory.
    rt.set_current({team_pid, naming::kDefaultContext});
    auto records = co_await rt.list_context("");
    EXPECT_TRUE(records.ok());
    if (records.ok()) {
      EXPECT_EQ(records.value().size(), 1u);
      EXPECT_EQ(records.value()[0].type, DescriptorType::kProcess);
      EXPECT_EQ(records.value()[0].size, 4096u);  // [bin]edit image size
      // Kill it via the uniform remove operation.
      EXPECT_EQ(co_await rt.remove(records.value()[0].name), ReplyCode::kOk);
    }
    auto after = co_await rt.list_context("");
    EXPECT_TRUE(after.ok());
    if (after.ok()) {
      EXPECT_TRUE(after.value().empty());
    }
  });
  EXPECT_EQ(team.program_count(), 0u);
}

TEST(TeamServer, MissingProgramFails) {
  VFixture fx;
  servers::TeamServer team({fx.alpha_pid, naming::kDefaultContext});
  const auto team_pid =
      fx.ws1.spawn("team", [&](ipc::Process p) { return team.run(p); });
  fx.run_client([&, team_pid](ipc::Process self, svc::Rt) -> Co<void> {
    auto loaded = co_await servers::TeamServer::load_program(
        self, team_pid, "[bin]nonexistent");
    EXPECT_EQ(loaded.code(), ReplyCode::kNotFound);
  });
}

}  // namespace
}  // namespace v
