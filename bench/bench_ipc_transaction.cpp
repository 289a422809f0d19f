// E1 / Figure 1 (paper section 3.1): the Send-Receive-Reply message
// transaction.  Paper numbers: 0.77 ms local, 2.56 ms between two SUN
// workstations on 3 Mbit Ethernet.  Also reports Forward chains and the
// kernel service-registry (GetPid) costs that section 4 describes.
#include "bench_util.hpp"
#include "msg/message.hpp"

using namespace v;
using sim::Co;
using sim::to_ms;

namespace {

sim::Co<void> echo(ipc::Process self) {
  for (;;) {
    auto env = co_await self.receive();
    self.reply(env, msg::make_reply(ReplyCode::kOk));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::json_path_from_args(argc, argv);
  bench::headline("E1 / Fig.1", "Send-Receive-Reply message transaction");

  ipc::Domain dom;
  auto& ws1 = dom.add_host("ws1");
  auto& ws2 = dom.add_host("ws2");
  const auto local_server = ws1.spawn("echo-local", echo);
  const auto remote_server = ws2.spawn("echo-remote", echo);
  const auto forwarder =
      ws1.spawn("forwarder", [local_server](ipc::Process self) -> Co<void> {
        for (;;) {
          auto env = co_await self.receive();
          self.forward(env, local_server);
        }
      });

  double local_ms = 0, remote_ms = 0, forwarded_ms = 0;
  double getpid_local_ms = 0, getpid_remote_ms = 0;
  const bool ok = bench::run_client(dom, ws1, [&](ipc::Process self)
                                                  -> Co<void> {
    constexpr int kIters = 100;
    auto timed = [&](ipc::ProcessId dest) -> Co<double> {
      const auto t0 = self.now();
      for (int i = 0; i < kIters; ++i) {
        (void)co_await self.send(msg::Message{}, dest);
      }
      co_return to_ms(self.now() - t0) / kIters;
    };
    local_ms = co_await timed(local_server);
    remote_ms = co_await timed(remote_server);
    forwarded_ms = co_await timed(forwarder);

    self.set_pid(ipc::ServiceId::kStorageServer, remote_server,
                 ipc::Scope::kBoth);
    self.set_pid(ipc::ServiceId::kTimeServer, local_server,
                 ipc::Scope::kLocal);
    auto t0 = self.now();
    for (int i = 0; i < kIters; ++i) {
      (void)co_await self.get_pid(ipc::ServiceId::kTimeServer,
                                  ipc::Scope::kLocal);
    }
    getpid_local_ms = to_ms(self.now() - t0) / kIters;
    t0 = self.now();
    for (int i = 0; i < kIters; ++i) {
      (void)co_await self.get_pid(ipc::ServiceId::kStorageServer,
                                  ipc::Scope::kRemote);
    }
    getpid_remote_ms = to_ms(self.now() - t0) / kIters;
  });
  if (!ok) return 1;

  bench::row("32 B transaction, same host", local_ms, 0.77);
  bench::row("32 B transaction, across 3 Mbit Ethernet", remote_ms, 2.56);
  bench::row("same, via one local Forward hop", forwarded_ms);
  bench::note("");
  bench::note("service registry (section 4.2):");
  bench::row("GetPid, local table hit", getpid_local_ms);
  bench::row("GetPid, broadcast to remote kernels", getpid_remote_ms);
  bench::note("");
  bench::note("pid structure (Fig. 2): locality test is a 16-bit compare;");
  bench::note("see test_ipc Pid.* for the uniqueness/locality checks.");
  return bench::finish(json_path);
}
