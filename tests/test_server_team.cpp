// Tests for the receptionist + worker-team CSNH server structure:
// head-of-line blocking elimination, queue-cap shedding (kBusy),
// deterministic serialization of mutating ops on the same (ctx, leaf),
// and the deferred-reply / group-forward paths with workers > 1.
#include <gtest/gtest.h>

#include <string>
#include <vector>

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

// --- head-of-line blocking ------------------------------------------------

// Open latency of an independent small file while a bulk disk transfer
// (ONE request, ~8 disk pages at 15 ms each) is in flight at the same
// server.
sim::SimDuration open_latency_during_bulk(std::size_t workers) {
  VFixture fx(ipc::CalibrationParams::SunWorkstation3Mbit(),
              servers::DiskModel::kDisk,
              {.workers = workers, .queue_cap = 64});
  fx.ws1.spawn("streamer", [&fx](ipc::Process self) -> Co<void> {
    svc::Rt rt(self, {ipc::ProcessId::invalid(),
                      {fx.alpha_pid, naming::kDefaultContext}});
    auto opened = co_await rt.open("bin/edit", kOpenRead);
    EXPECT_TRUE(opened.ok());
    if (!opened.ok()) co_return;
    svc::File f = opened.take();
    auto bytes = co_await f.read_bulk();
    EXPECT_TRUE(bytes.ok());
    (void)co_await f.close();
  });
  sim::SimDuration latency = 0;
  fx.run_client([&](ipc::Process self, svc::Rt rt) -> Co<void> {
    // Give the streamer time to get its bulk read in flight.
    co_await self.delay(20 * kMillisecond);
    const auto t0 = self.now();
    auto opened = co_await rt.open("usr/mann/naming.mss", kOpenRead);
    latency = self.now() - t0;
    EXPECT_TRUE(opened.ok());
    if (opened.ok()) {
      svc::File f = opened.take();
      (void)co_await f.close();
    }
  });
  return latency;
}

TEST(ServerTeam, SerialLoopSuffersHeadOfLineBlocking) {
  // Baseline sanity for the regression below: with the classic serial
  // loop the independent open waits for the whole remaining transfer.
  EXPECT_GT(open_latency_during_bulk(1), 50 * kMillisecond);
}

TEST(ServerTeam, SecondWorkerEliminatesHeadOfLineBlocking) {
  // With one extra worker the open must not be delayed past (roughly)
  // its own service time — far below the bulk transfer's duration.
  EXPECT_LT(open_latency_during_bulk(2), 20 * kMillisecond);
}

// --- queue cap + shed policy ----------------------------------------------

TEST(ServerTeam, QueueCapShedsWithBusyReply) {
  ipc::Domain dom(ipc::CalibrationParams::SunWorkstation3Mbit());
  auto& ws1 = dom.add_host("ws1");
  auto& fs1 = dom.add_host("fs1");
  servers::FileServer disk_fs("disk", servers::DiskModel::kDisk,
                              /*register_service=*/false,
                              {.workers = 2, .queue_cap = 2});
  disk_fs.put_file("big.dat", std::string(8 * 1024, 'x'));
  disk_fs.put_file("small.dat", "tiny");
  const auto disk_pid =
      fs1.spawn("disk-fs", [&](ipc::Process p) { return disk_fs.run(p); });

  // Two streamers occupy both workers with long bulk transfers.
  for (int s = 0; s < 2; ++s) {
    ws1.spawn("streamer", [&](ipc::Process self) -> Co<void> {
      svc::Rt rt(self, {ipc::ProcessId::invalid(),
                        {disk_pid, naming::kDefaultContext}});
      auto opened = co_await rt.open("big.dat", kOpenRead);
      EXPECT_TRUE(opened.ok());
      if (!opened.ok()) co_return;
      svc::File f = opened.take();
      (void)co_await f.read_bulk();
      (void)co_await f.close();
    });
  }
  // Four opens arrive while both workers are busy: queue_cap = 2 admits
  // two; the other two must be shed immediately with kBusy.
  int ok_count = 0;
  int busy_count = 0;
  for (int c = 0; c < 4; ++c) {
    ws1.spawn("opener", [&](ipc::Process self) -> Co<void> {
      svc::Rt rt(self, {ipc::ProcessId::invalid(),
                        {disk_pid, naming::kDefaultContext}});
      co_await self.delay(30 * kMillisecond);
      auto opened = co_await rt.open("small.dat", kOpenRead);
      if (opened.ok()) {
        ++ok_count;
        svc::File f = opened.take();
        (void)co_await f.close();
      } else if (opened.code() == ReplyCode::kBusy) {
        ++busy_count;
      }
    });
  }
  dom.run();
  EXPECT_EQ(dom.process_failures(), 0u) << dom.first_failure();
  EXPECT_EQ(busy_count, 2);
  EXPECT_EQ(ok_count, 2);
  EXPECT_EQ(disk_fs.shed_count(), 2u);
  EXPECT_EQ(disk_fs.queue_depth(), 0u);  // drained by run end
}

// --- mutating-op serialization --------------------------------------------

/// A file server whose create and remove hooks spend kDirectoryWrite of
/// simulated time while the mutation gate is held, so concurrent mutators
/// of one leaf really queue at the gate.  (With in-memory hooks nothing
/// suspends under the gate, and no mutator ever waits.)  The write is
/// short next to the clients' 1-4 ms think times, so after the opening
/// burst the clients drift apart and each one wins some creates.
class DiskDirectoryServer : public servers::FileServer {
 public:
  using servers::FileServer::FileServer;
  static constexpr sim::SimDuration kDirectoryWrite = 200 * sim::kMicrosecond;

 protected:
  sim::Co<ReplyCode> create_object(ipc::Process& self, naming::ContextId ctx,
                                   std::string_view leaf,
                                   std::uint16_t mode) override {
    co_await self.delay(kDirectoryWrite);
    co_return co_await servers::FileServer::create_object(self, ctx, leaf,
                                                          mode);
  }
  sim::Co<ReplyCode> remove(ipc::Process& self, naming::ContextId ctx,
                            std::string_view leaf) override {
    co_await self.delay(kDirectoryWrite);
    co_return co_await servers::FileServer::remove(self, ctx, leaf);
  }
};

struct RaceOutcome {
  std::vector<std::string> journal;
  std::uint64_t handoffs = 0;
};

// Four clients race create/remove on the SAME (ctx, leaf) against a
// 4-worker team.  The per-name gate serializes the mutations, and the
// deterministic event loop makes the interleaving reproducible: the whole
// journal of observed reply codes must be identical across runs.
RaceOutcome mutate_race() {
  ipc::Domain dom(ipc::CalibrationParams::SunWorkstation3Mbit());
  auto& ws1 = dom.add_host("ws1");
  auto& fs1 = dom.add_host("fs1");
  DiskDirectoryServer alpha("alpha", servers::DiskModel::kMemory,
                            /*register_service=*/false,
                            {.workers = 4, .queue_cap = 64});
  alpha.mkdirs("tmp");
  const auto alpha_pid =
      fs1.spawn("alpha", [&alpha](ipc::Process p) { return alpha.run(p); });
  RaceOutcome out;
  out.journal.resize(4);
  int finished = 0;
  for (int c = 0; c < 4; ++c) {
    ws1.spawn("mutator", [alpha_pid, &out, &finished,
                          c](ipc::Process self) -> Co<void> {
      svc::Rt rt(self, {ipc::ProcessId::invalid(),
                        {alpha_pid, naming::kDefaultContext}});
      std::string& log = out.journal[static_cast<std::size_t>(c)];
      for (int i = 0; i < 5; ++i) {
        const auto created = co_await rt.create("tmp/contested", 0);
        log += std::string(to_string(created)) + ";";
        co_await self.delay((c + 1) * kMillisecond);
        const auto removed = co_await rt.remove("tmp/contested");
        log += std::string(to_string(removed)) + ";";
      }
      ++finished;
    });
  }
  dom.run();
  EXPECT_EQ(dom.process_failures(), 0u) << dom.first_failure();
  EXPECT_EQ(finished, 4);
  out.handoffs = alpha.gate_handoffs();
  return out;
}

TEST(ServerTeam, MutatingOpsOnSameLeafAreDeterministic) {
  const auto first = mutate_race();
  const auto second = mutate_race();
  EXPECT_EQ(first.journal, second.journal);
  // The mutators really contend: some gate was passed from a releasing
  // holder to a queued waiter.
  EXPECT_GE(first.handoffs, 1u);
  EXPECT_EQ(first.handoffs, second.handoffs);
  // The gate admits one mutation at a time, so every observed code is a
  // legal serial outcome — never a torn/corrupt server state.
  for (const auto& log : first.journal) {
    EXPECT_EQ(log.find("BAD_STATE"), std::string::npos) << log;
    EXPECT_NE(log.find("OK"), std::string::npos) << log;
  }
}

// --- pipe deferred replies with a team ------------------------------------

TEST(ServerTeam, PipeDeferredReplyWorksWithWorkers) {
  VFixture fx;
  servers::PipeServer pipes_srv(64 * 1024, {.workers = 3, .queue_cap = 32});
  const auto pipe_pid = fx.ws1.spawn(
      "pipe-server", [&](ipc::Process p) { return pipes_srv.run(p); });

  sim::SimTime side_done_at = 0;
  sim::SimTime read_returned_at = 0;

  // Producer: writes after 50 ms, so the consumer's read must block via
  // the deferred-reply path (held envelope) in the meantime.
  auto& ws2 = fx.dom.add_host("ws2");
  ws2.spawn("producer", [&](ipc::Process self) -> Co<void> {
    svc::Rt rt(self, {ipc::ProcessId::invalid(),
                      {pipe_pid, naming::kDefaultContext}});
    co_await self.delay(50 * kMillisecond);
    auto w = co_await rt.open("blocky", kOpenWrite | kOpenCreate);
    EXPECT_TRUE(w.ok());
    if (!w.ok()) co_return;
    svc::File writer = w.take();
    const std::string payload = "finally";
    auto wrote = co_await writer.write_block(
        0, std::as_bytes(std::span(payload.data(), payload.size())));
    EXPECT_TRUE(wrote.ok());
    EXPECT_EQ(co_await writer.close(), ReplyCode::kOk);
  });
  // Side client: while the consumer's read is parked, other requests are
  // still served promptly — the held envelope must not stall the team.
  ws2.spawn("side", [&](ipc::Process self) -> Co<void> {
    svc::Rt rt(self, {ipc::ProcessId::invalid(),
                      {pipe_pid, naming::kDefaultContext}});
    co_await self.delay(20 * kMillisecond);
    auto w = co_await rt.open("other", kOpenWrite | kOpenCreate);
    EXPECT_TRUE(w.ok());
    if (!w.ok()) co_return;
    svc::File writer = w.take();
    EXPECT_EQ(co_await writer.close(), ReplyCode::kOk);
    side_done_at = self.now();
  });
  fx.run_client([&](ipc::Process self, svc::Rt rt) -> Co<void> {
    rt.set_current({pipe_pid, naming::kDefaultContext});
    auto r = co_await rt.open("blocky", kOpenRead | kOpenCreate);
    EXPECT_TRUE(r.ok());
    if (!r.ok()) co_return;
    svc::File reader = r.take();
    std::vector<std::byte> buf(32);
    auto got = co_await reader.read_block(0, buf);  // parks ~50 ms
    read_returned_at = self.now();
    EXPECT_TRUE(got.ok());
    if (!got.ok()) co_return;
    EXPECT_EQ(got.value(), 7u);
    EXPECT_EQ(std::memcmp(buf.data(), "finally", 7), 0);
    EXPECT_EQ(co_await reader.close(), ReplyCode::kOk);
  });
  EXPECT_GE(read_returned_at, 50 * kMillisecond);
  EXPECT_GT(side_done_at, sim::SimTime{0});
  EXPECT_LT(side_done_at, 40 * kMillisecond);  // not stuck behind the park
}

// --- group-forward path with a team ---------------------------------------

TEST(ServerTeam, GroupImplementedContextWorksWithWorkers) {
  constexpr ipc::GroupId kReplicas = 0x9002;
  VFixture fx(ipc::CalibrationParams::SunWorkstation3Mbit(),
              servers::DiskModel::kMemory, {.workers = 2, .queue_cap = 32});
  std::vector<std::unique_ptr<servers::FileServer>> replicas;
  for (int i = 0; i < 3; ++i) {
    auto& host = fx.dom.add_host("replica-host" + std::to_string(i));
    replicas.push_back(std::make_unique<servers::FileServer>(
        "replica" + std::to_string(i), servers::DiskModel::kMemory,
        /*register_service=*/false,
        naming::TeamConfig{.workers = 2, .queue_cap = 32}));
    replicas.back()->put_file("shared/doc.txt", "replicated content");
    replicas.back()->set_group(kReplicas);
    host.spawn("replica" + std::to_string(i),
               [srv = replicas.back().get()](ipc::Process p) {
                 return srv->run(p);
               });
  }
  servers::ContextPrefixServer::Entry entry;
  entry.group = kReplicas;
  fx.prefixes.define("repl", entry);

  fx.run_client([](ipc::Process self, svc::Rt rt) -> Co<void> {
    co_await self.delay(kMillisecond);  // members join their group
    auto opened = co_await rt.open("[repl]shared/doc.txt", kOpenRead);
    EXPECT_TRUE(opened.ok());
    if (!opened.ok()) co_return;
    svc::File f = opened.take();
    auto bytes = co_await f.read_all();
    EXPECT_TRUE(bytes.ok());
    if (!bytes.ok()) co_return;
    EXPECT_EQ(std::string(
                  reinterpret_cast<const char*>(bytes.value().data()),
                  bytes.value().size()),
              "replicated content");
    EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
  });
}

}  // namespace
}  // namespace v
