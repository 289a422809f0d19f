// E9 (paper section 7, future work): service naming via multicast group
// Send versus the GetPid broadcast mechanism of section 4.2.
//
// "A near-term project is to replace the low-level service naming using
// GetPid and SetPid with a mechanism based on multicast Send.  Using this
// mechanism, a single context could be implemented transparently by a
// group of servers working in cooperation."
//
// We measure: resolving + using a service via (a) GetPid broadcast then
// direct send, (b) one multicast group send answered by the first member,
// and (c) a cached pid (the steady-state the paper recommends for file
// access).  Swept over the number of candidate server hosts.
#include <memory>

#include "bench_util.hpp"
#include "msg/message.hpp"
#include "naming/protocol.hpp"

using namespace v;
using sim::Co;
using sim::to_ms;

namespace {

constexpr ipc::GroupId kStorageGroup = 0x5701;

sim::Co<void> group_member(ipc::Process self) {
  self.join_group(kStorageGroup);
  for (;;) {
    auto env = co_await self.receive();
    self.reply(env, msg::make_reply(ReplyCode::kOk));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::json_path_from_args(argc, argv);
  bench::headline("E9", "service naming: GetPid broadcast vs multicast "
                        "group Send (section 7)");

  std::printf("  %-8s %22s %22s %18s\n", "servers", "GetPid+send (ms)",
              "group send (ms)", "cached pid (ms)");
  for (const int servers_n : {1, 2, 4, 8, 16}) {
    ipc::Domain dom;
    auto& ws = dom.add_host("ws1");
    std::vector<ipc::ProcessId> members;
    for (int i = 0; i < servers_n; ++i) {
      auto& host = dom.add_host("fs" + std::to_string(i));
      members.push_back(
          host.spawn("member" + std::to_string(i),
                     [](ipc::Process p) { return group_member(p); }));
    }

    double getpid_ms = 0, group_ms = 0, cached_ms = 0;
    const bool ok = bench::run_client(dom, ws, [&](ipc::Process self)
                                                    -> Co<void> {
      // Register the LAST member as the service provider (worst case for
      // the deterministic broadcast scan).
      self.set_pid(ipc::ServiceId::kStorageServer, members.back(),
                   ipc::Scope::kBoth);
      co_await self.delay(sim::kMillisecond);  // let members join the group
      constexpr int kIters = 25;

      auto t0 = self.now();
      for (int i = 0; i < kIters; ++i) {
        const auto pid = co_await self.get_pid(
            ipc::ServiceId::kStorageServer, ipc::Scope::kBoth);
        (void)co_await self.send(msg::Message{}, pid);
      }
      getpid_ms = to_ms(self.now() - t0) / kIters;

      t0 = self.now();
      for (int i = 0; i < kIters; ++i) {
        (void)co_await self.send_to_group(msg::Message{}, kStorageGroup);
      }
      group_ms = to_ms(self.now() - t0) / kIters;

      const auto cached = members.back();
      t0 = self.now();
      for (int i = 0; i < kIters; ++i) {
        (void)co_await self.send(msg::Message{}, cached);
      }
      cached_ms = to_ms(self.now() - t0) / kIters;
    });
    if (!ok) return 1;
    std::printf("  %-8d %22.2f %22.2f %18.2f\n", servers_n, getpid_ms,
                group_ms, cached_ms);
  }
  // --- group-implemented contexts: replicated storage ----------------------
  bench::note("");
  bench::note("group-implemented context (section 7): open latency through");
  bench::note("a [repl] prefix bound to N read replicas (one local):");
  std::printf("  %-10s %18s %24s\n", "replicas", "open+close (ms)",
              "still OK with N-1 dead");
  for (const int replicas : {1, 2, 4, 8}) {
    ipc::Domain dom;
    auto& ws = dom.add_host("ws1");
    constexpr ipc::GroupId kRepl = 0x7777;
    std::vector<std::unique_ptr<servers::FileServer>> fleet;
    std::vector<ipc::Host*> fleet_hosts;
    for (int r = 0; r < replicas; ++r) {
      // First replica local to the client, the rest remote.
      auto& host = r == 0 ? ws : dom.add_host("r" + std::to_string(r));
      fleet.push_back(std::make_unique<servers::FileServer>(
          "repl" + std::to_string(r), servers::DiskModel::kMemory, false));
      fleet.back()->put_file("shared/doc", "replica bytes");
      fleet.back()->set_group(kRepl);
      host.spawn("repl" + std::to_string(r),
                 [srv = fleet.back().get()](ipc::Process p) {
                   return srv->run(p);
                 });
      if (r != 0) fleet_hosts.push_back(&host);
    }
    servers::ContextPrefixServer prefixes;
    servers::ContextPrefixServer::Entry entry;
    entry.group = kRepl;
    prefixes.define("repl", entry);
    ws.spawn("prefix-server",
             [&](ipc::Process p) { return prefixes.run(p); });

    double open_ms = 0;
    bool survived = true;
    const bool ok2 = bench::run_client(dom, ws, [&](ipc::Process self)
                                                    -> Co<void> {
      auto rt = co_await svc::Rt::attach(
          self, naming::ContextPair{ipc::ProcessId::invalid(),
                                    naming::kDefaultContext});
      co_await self.delay(sim::kMillisecond);
      constexpr int kIters = 20;
      const auto t0 = self.now();
      for (int i = 0; i < kIters; ++i) {
        auto opened =
            co_await rt.open("[repl]shared/doc", naming::wire::kOpenRead);
        if (opened.ok()) {
          svc::File f = opened.take();
          (void)co_await f.close();
        }
      }
      open_ms = sim::to_ms(self.now() - t0) / kIters;
      // Kill all remote replicas; the local one must still answer.
      for (auto* host : fleet_hosts) host->crash();
      auto opened =
          co_await rt.open("[repl]shared/doc", naming::wire::kOpenRead);
      survived = opened.ok();
      if (opened.ok()) {
        svc::File f = opened.take();
        (void)co_await f.close();
      }
    });
    if (!ok2) return 1;
    std::printf("  %-10d %18.2f %24s\n", replicas, open_ms,
                survived ? "yes" : "NO");
  }

  bench::note("");
  bench::note("shape: group send folds resolution INTO the request — one");
  bench::note("multicast replaces broadcast-query-then-send, and the first");
  bench::note("(fastest) member answers, so it also load-balances.  The");
  bench::note("cached-pid column is the paper's recommendation for");
  bench::note("high-rate use: bind at open time, send directly after.");
  return bench::finish(json_path);
}
