// Tests for the pipe server: blocking reads via deferred replies, EOF on
// last-writer close, capacity limits, and producer/consumer pipelines
// between separate processes.
#include <gtest/gtest.h>

#include "naming/protocol.hpp"
#include "servers/pipe_server.hpp"
#include "v_fixture.hpp"

namespace v {
namespace {

using naming::wire::kOpenCreate;
using naming::wire::kOpenRead;
using naming::wire::kOpenWrite;
using sim::Co;
using sim::kMillisecond;
using test::VFixture;

struct PipeFixture : VFixture {
  PipeFixture() {
    pipe_pid = ws1.spawn("pipe-server", [this](ipc::Process p) {
      return pipes_srv.run(p);
    });
  }
  servers::PipeServer pipes_srv;
  ipc::ProcessId pipe_pid;
};

std::span<const std::byte> as_span(std::string_view text) {
  return std::as_bytes(std::span(text.data(), text.size()));
}

TEST(PipeServer, WriteThenReadSameBytes) {
  PipeFixture fx;
  fx.run_client([&fx](ipc::Process, svc::Rt rt) -> Co<void> {
    rt.set_current({fx.pipe_pid, naming::kDefaultContext});
    auto w = co_await rt.open("p1", kOpenWrite | kOpenCreate);
    EXPECT_TRUE(w.ok());
    if (!w.ok()) co_return;
    svc::File writer = w.take();
    auto r = co_await rt.open("p1", kOpenRead);
    EXPECT_TRUE(r.ok());
    if (!r.ok()) co_return;
    svc::File reader = r.take();

    auto wrote = co_await writer.write_block(0, as_span("hello pipe"));
    EXPECT_TRUE(wrote.ok());
    std::vector<std::byte> buf(32);
    auto got = co_await reader.read_block(0, buf);
    EXPECT_TRUE(got.ok());
    if (got.ok()) {
      EXPECT_EQ(got.value(), 10u);
      EXPECT_EQ(std::memcmp(buf.data(), "hello pipe", 10), 0);
    }
    EXPECT_EQ(co_await writer.close(), ReplyCode::kOk);
    // Writer gone + empty buffer => EOF.
    got = co_await reader.read_block(0, buf);
    EXPECT_EQ(got.code(), ReplyCode::kEndOfFile);
    EXPECT_EQ(co_await reader.close(), ReplyCode::kOk);
  });
}

TEST(PipeServer, ReaderBlocksUntilWriterWrites) {
  PipeFixture fx;
  sim::SimTime read_returned_at = 0;
  sim::SimTime write_happened_at = 0;
  // Producer on another workstation, delayed.
  auto& ws2 = fx.dom.add_host("ws2");
  ws2.spawn("producer", [&](ipc::Process self) -> Co<void> {
    svc::Rt rt(self, {ipc::ProcessId::invalid(),
                      {fx.pipe_pid, naming::kDefaultContext}});
    co_await self.delay(50 * kMillisecond);
    auto w = co_await rt.open("blocky", kOpenWrite | kOpenCreate);
    EXPECT_TRUE(w.ok());
    if (!w.ok()) co_return;
    svc::File writer = w.take();
    co_await self.delay(100 * kMillisecond);
    write_happened_at = self.now();
    auto wrote = co_await writer.write_block(0, as_span("finally"));
    EXPECT_TRUE(wrote.ok());
    EXPECT_EQ(co_await writer.close(), ReplyCode::kOk);
  });
  fx.run_client([&](ipc::Process self, svc::Rt rt) -> Co<void> {
    rt.set_current({fx.pipe_pid, naming::kDefaultContext});
    // Create the pipe and a reader end before any writer exists.
    EXPECT_EQ(co_await rt.create("blocky"), ReplyCode::kOk);
    co_await self.delay(60 * kMillisecond);  // after producer opened
    auto r = co_await rt.open("blocky", kOpenRead);
    EXPECT_TRUE(r.ok());
    if (!r.ok()) co_return;
    svc::File reader = r.take();
    std::vector<std::byte> buf(16);
    auto got = co_await reader.read_block(0, buf);  // BLOCKS ~100 ms
    read_returned_at = self.now();
    EXPECT_TRUE(got.ok());
    if (got.ok()) {
      EXPECT_EQ(got.value(), 7u);
      EXPECT_EQ(std::memcmp(buf.data(), "finally", 7), 0);
    }
    EXPECT_EQ(co_await reader.close(), ReplyCode::kOk);
  });
  // The read completed only after the write happened.
  EXPECT_GT(read_returned_at, write_happened_at);
}

TEST(PipeServer, BlockedReaderWokenWithEofOnWriterClose) {
  PipeFixture fx;
  auto& ws2 = fx.dom.add_host("ws2");
  ws2.spawn("quitter", [&](ipc::Process self) -> Co<void> {
    svc::Rt rt(self, {ipc::ProcessId::invalid(),
                      {fx.pipe_pid, naming::kDefaultContext}});
    auto w = co_await rt.open("empty", kOpenWrite | kOpenCreate);
    EXPECT_TRUE(w.ok());
    if (!w.ok()) co_return;
    svc::File writer = w.take();
    co_await self.delay(80 * kMillisecond);
    EXPECT_EQ(co_await writer.close(), ReplyCode::kOk);  // never wrote
  });
  fx.run_client([&](ipc::Process self, svc::Rt rt) -> Co<void> {
    rt.set_current({fx.pipe_pid, naming::kDefaultContext});
    co_await self.delay(10 * kMillisecond);
    auto r = co_await rt.open("empty", kOpenRead);
    EXPECT_TRUE(r.ok());
    if (!r.ok()) co_return;
    svc::File reader = r.take();
    std::vector<std::byte> buf(8);
    auto got = co_await reader.read_block(0, buf);  // blocks until close
    EXPECT_EQ(got.code(), ReplyCode::kEndOfFile);
    EXPECT_GT(self.now(), 80 * kMillisecond);
    EXPECT_EQ(co_await reader.close(), ReplyCode::kOk);
  });
}

TEST(PipeServer, ProducerConsumerPipeline) {
  PipeFixture fx;
  constexpr int kItems = 25;
  int consumed = 0;
  auto& ws2 = fx.dom.add_host("ws2");
  ws2.spawn("producer", [&](ipc::Process self) -> Co<void> {
    svc::Rt rt(self, {ipc::ProcessId::invalid(),
                      {fx.pipe_pid, naming::kDefaultContext}});
    auto w = co_await rt.open("jobs", kOpenWrite | kOpenCreate);
    EXPECT_TRUE(w.ok());
    if (!w.ok()) co_return;
    svc::File writer = w.take();
    for (int i = 0; i < kItems; ++i) {
      const std::string item = "item-" + std::to_string(i) + ";";
      auto wrote = co_await writer.write_block(0, as_span(item));
      EXPECT_TRUE(wrote.ok());
      co_await self.delay(static_cast<sim::SimDuration>(1 + i % 3) *
                          kMillisecond);
    }
    EXPECT_EQ(co_await writer.close(), ReplyCode::kOk);
  });
  fx.run_client([&](ipc::Process self, svc::Rt rt) -> Co<void> {
    rt.set_current({fx.pipe_pid, naming::kDefaultContext});
    co_await self.delay(kMillisecond);
    auto r = co_await rt.open("jobs", kOpenRead);
    EXPECT_TRUE(r.ok());
    if (!r.ok()) co_return;
    svc::File reader = r.take();
    std::string received;
    std::vector<std::byte> buf(64);
    for (;;) {
      auto got = co_await reader.read_block(0, buf);
      if (!got.ok()) {
        EXPECT_EQ(got.code(), ReplyCode::kEndOfFile);
        break;
      }
      received.append(reinterpret_cast<const char*>(buf.data()),
                      got.value());
    }
    // Count complete items.
    for (std::size_t pos = 0; (pos = received.find(';', pos)) !=
                              std::string::npos;
         ++pos) {
      ++consumed;
    }
    EXPECT_EQ(co_await reader.close(), ReplyCode::kOk);
  });
  EXPECT_EQ(consumed, kItems);
  EXPECT_EQ(fx.pipes_srv.buffered("jobs").value(), 0u);
}

TEST(PipeServer, ReadWriteEndRolesEnforced) {
  PipeFixture fx;
  fx.run_client([&fx](ipc::Process, svc::Rt rt) -> Co<void> {
    rt.set_current({fx.pipe_pid, naming::kDefaultContext});
    // An end must be exactly one of reader/writer.
    auto both = co_await rt.open("roles",
                                 kOpenRead | kOpenWrite | kOpenCreate);
    EXPECT_EQ(both.code(), ReplyCode::kBadArgs);
    auto w = co_await rt.open("roles", kOpenWrite | kOpenCreate);
    EXPECT_TRUE(w.ok());
    if (!w.ok()) co_return;
    svc::File writer = w.take();
    std::vector<std::byte> buf(8);
    auto got = co_await writer.read_block(0, buf);
    EXPECT_EQ(got.code(), ReplyCode::kNotReadable);
    auto r = co_await rt.open("roles", kOpenRead);
    EXPECT_TRUE(r.ok());
    if (!r.ok()) co_return;
    svc::File reader = r.take();
    auto wrote = co_await reader.write_block(0, as_span("nope"));
    EXPECT_EQ(wrote.code(), ReplyCode::kNotWriteable);
    EXPECT_EQ(co_await writer.close(), ReplyCode::kOk);
    EXPECT_EQ(co_await reader.close(), ReplyCode::kOk);
  });
}

// PROTOCOL.md 11: every gated mutation bumps the generation, so a refused
// open-with-create must not leave a pipe behind with the generation unmoved.
TEST(PipeServer, RefusedOpenWithCreateCreatesNothing) {
  PipeFixture fx;
  fx.run_client([&fx](ipc::Process, svc::Rt rt) -> Co<void> {
    rt.set_current({fx.pipe_pid, naming::kDefaultContext});
    const auto gen = fx.pipes_srv.generation(naming::kDefaultContext);
    auto both = co_await rt.open("p2", kOpenRead | kOpenWrite | kOpenCreate);
    EXPECT_EQ(both.code(), ReplyCode::kBadArgs);
    EXPECT_EQ(fx.pipes_srv.pipe_count(), 0u);
    EXPECT_EQ(fx.pipes_srv.buffered("p2").code(), ReplyCode::kNotFound);
    EXPECT_EQ(fx.pipes_srv.generation(naming::kDefaultContext), gen);
  });
}

TEST(PipeServer, CapacityLimitRejectsOversizedBacklog) {
  PipeFixture fx2;
  servers::PipeServer small_server(/*capacity_bytes=*/100);
  const auto small_pid = fx2.ws1.spawn(
      "small-pipes", [&](ipc::Process p) { return small_server.run(p); });
  fx2.run_client([&, small_pid](ipc::Process, svc::Rt rt) -> Co<void> {
    rt.set_current({small_pid, naming::kDefaultContext});
    auto w = co_await rt.open("tiny", kOpenWrite | kOpenCreate);
    EXPECT_TRUE(w.ok());
    if (!w.ok()) co_return;
    svc::File writer = w.take();
    const std::string eighty(80, 'x');
    auto wrote = co_await writer.write_block(0, as_span(eighty));
    EXPECT_TRUE(wrote.ok());
    const std::string forty(40, 'y');
    wrote = co_await writer.write_block(0, as_span(forty));
    EXPECT_EQ(wrote.code(), ReplyCode::kNoServerResources);
    EXPECT_EQ(co_await writer.close(), ReplyCode::kOk);
  });
}

TEST(PipeServer, PipesAreListableLikeEverythingElse) {
  PipeFixture fx;
  fx.run_client([&fx](ipc::Process, svc::Rt rt) -> Co<void> {
    rt.set_current({fx.pipe_pid, naming::kDefaultContext});
    EXPECT_EQ(co_await rt.create("a"), ReplyCode::kOk);
    EXPECT_EQ(co_await rt.create("b"), ReplyCode::kOk);
    auto records = co_await rt.list_context("");
    EXPECT_TRUE(records.ok());
    if (records.ok()) {
      EXPECT_EQ(records.value().size(), 2u);
    }
    // Removal honors open ends.
    auto w = co_await rt.open("a", kOpenWrite);
    EXPECT_TRUE(w.ok());
    if (!w.ok()) co_return;
    svc::File writer = w.take();
    EXPECT_EQ(co_await rt.remove("a"), ReplyCode::kBadState);
    EXPECT_EQ(co_await writer.close(), ReplyCode::kOk);
    EXPECT_EQ(co_await rt.remove("a"), ReplyCode::kOk);
  });
}

}  // namespace
}  // namespace v
