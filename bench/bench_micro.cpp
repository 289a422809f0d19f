// Real-time (not simulated-time) microbenchmarks of the library itself,
// via google-benchmark: event-loop throughput, coroutine transaction rate,
// name parsing and descriptor encode/decode.  These gate the simulator's
// own performance (how fast wall-clock time the reproduction runs), not
// the paper's numbers.
#include <benchmark/benchmark.h>

#include "ipc/kernel.hpp"
#include "msg/message.hpp"
#include "naming/descriptor.hpp"
#include "naming/parse.hpp"
#include "naming/protocol.hpp"
#include "servers/file_server.hpp"
#include "sim/event_loop.hpp"
#include "svc/runtime.hpp"

namespace {

using namespace v;

void BM_EventLoopScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventLoop loop;
    int sink = 0;
    for (int i = 0; i < 1000; ++i) {
      loop.schedule_at(i, [&sink] { ++sink; });
    }
    loop.run_until_idle();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventLoopScheduleRun);

void BM_IpcTransactionRoundTrips(benchmark::State& state) {
  for (auto _ : state) {
    ipc::Domain dom;
    auto& ws1 = dom.add_host("ws1");
    auto& ws2 = dom.add_host("ws2");
    const auto server =
        ws2.spawn("echo", [](ipc::Process self) -> sim::Co<void> {
          for (;;) {
            auto env = co_await self.receive();
            self.reply(env, msg::make_reply(ReplyCode::kOk));
          }
        });
    ws1.spawn("client", [server](ipc::Process self) -> sim::Co<void> {
      for (int i = 0; i < 200; ++i) {
        (void)co_await self.send(msg::Message{}, server);
      }
    });
    dom.run();
  }
  state.SetItemsProcessed(state.iterations() * 200);
  state.SetLabel("simulated transactions per wall-clock unit");
}
BENCHMARK(BM_IpcTransactionRoundTrips);

void BM_CsnameOpenClose(benchmark::State& state) {
  // Host cost of the full client send path (Rt::send_csname request
  // staging + reply decode), the hot loop audited for needless segment
  // copies: with no payload the name rides as a borrowed span, so the
  // common CSname request stages zero client-side copies.  Audit medians
  // (15 reps, this benchmark): always-copy staging 828 us, borrowed span
  // 811 us per 200 transactions.
  for (auto _ : state) {
    ipc::Domain dom;
    auto& ws1 = dom.add_host("ws1");
    servers::FileServer fs("fs", servers::DiskModel::kMemory, false);
    for (int f = 0; f < 8; ++f) {
      fs.put_file("usr/mann/f" + std::to_string(f) + ".dat", "x");
    }
    const auto fs_pid =
        ws1.spawn("fs", [&](ipc::Process p) { return fs.run(p); });
    ws1.spawn("client", [fs_pid](ipc::Process self) -> sim::Co<void> {
      svc::Rt rt(self, {ipc::ProcessId::invalid(),
                        {fs_pid, naming::kDefaultContext}});
      for (int i = 0; i < 200; ++i) {
        const std::string name =
            "usr/mann/f" + std::to_string(i % 8) + ".dat";
        auto opened = co_await rt.open(name, naming::wire::kOpenRead);
        svc::File file = opened.take();
        (void)co_await file.close();
      }
    });
    dom.run();
  }
  state.SetItemsProcessed(state.iterations() * 200);
  state.SetLabel("open+close round trips through Rt::send_csname");
}
BENCHMARK(BM_CsnameOpenClose);

void BM_NameComponentParse(benchmark::State& state) {
  const std::string name = "usr/mann/projects/v-system/kernel/naming.mss";
  for (auto _ : state) {
    std::size_t index = 0, next = 0, count = 0;
    for (;;) {
      const auto comp = naming::next_component(name, index, next);
      if (comp.empty()) break;
      count += comp.size();
      index = next;
    }
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_NameComponentParse);

void BM_PrefixParse(benchmark::State& state) {
  const std::string name = "[storage1]/usr/mann/naming.mss";
  for (auto _ : state) {
    std::size_t rest = 0;
    auto prefix = naming::parse_prefix(name, rest);
    benchmark::DoNotOptimize(prefix);
  }
}
BENCHMARK(BM_PrefixParse);

void BM_DescriptorEncodeDecode(benchmark::State& state) {
  naming::ObjectDescriptor desc;
  desc.type = naming::DescriptorType::kFile;
  desc.flags = naming::kReadable | naming::kWriteable;
  desc.size = 123456;
  desc.owner = "mann";
  desc.name = "naming.mss";
  std::array<std::byte, naming::ObjectDescriptor::kWireSize> wire{};
  for (auto _ : state) {
    desc.encode(wire);
    auto decoded = naming::ObjectDescriptor::decode(wire);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_DescriptorEncodeDecode);

}  // namespace

BENCHMARK_MAIN();
