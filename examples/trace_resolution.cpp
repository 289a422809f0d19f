// V-trace walkthrough: resolve a multi-hop name with tracing enabled,
// print the causally-ordered hop tree, export Chrome trace-event JSON
// (load it in Perfetto or chrome://tracing), and read live counters back
// through the `[metrics]` context — observability served through the same
// uniform naming protocol it observes.
//
// Usage: trace_resolution [trace.json]
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ipc/kernel.hpp"
#include "naming/protocol.hpp"
#include "servers/file_server.hpp"
#include "servers/metrics_server.hpp"
#include "servers/prefix_server.hpp"
#include "svc/runtime.hpp"

namespace {

v::sim::Co<void> read_metric(v::svc::Rt& rt, const std::string& name) {
  using namespace v;
  auto opened = co_await rt.open(name, naming::wire::kOpenRead);
  if (!opened.ok()) {
    std::printf("  %-28s <unavailable: %s>\n", name.c_str(),
                std::string(to_string(opened.code())).c_str());
    co_return;
  }
  svc::File f = opened.take();
  auto bytes = co_await f.read_all();
  if (bytes.ok()) {
    std::string text(reinterpret_cast<const char*>(bytes.value().data()),
                     bytes.value().size());
    while (!text.empty() && text.back() == '\n') text.pop_back();
    std::printf("  %-28s %s\n", name.c_str(), text.c_str());
  }
  (void)co_await f.close();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace v;
  const std::string out_path = argc > 1 ? argv[1] : "trace.json";

  ipc::Domain dom;
  dom.tracer().enable();

  auto& ws = dom.add_host("ws-cheriton");

  // A chain of file servers joined by "next" links: resolving
  // next/next/next/payload.dat crosses three server boundaries, each one a
  // Forward of the partially-interpreted request (paper section 5.4).
  constexpr int kHops = 3;
  std::vector<std::unique_ptr<servers::FileServer>> chain;
  std::vector<ipc::ProcessId> pids;
  for (int i = 0; i <= kHops; ++i) {
    auto& host = dom.add_host("fs" + std::to_string(i));
    chain.push_back(std::make_unique<servers::FileServer>(
        "fs" + std::to_string(i), servers::DiskModel::kMemory, false));
    pids.push_back(host.spawn("fs" + std::to_string(i),
                              [srv = chain.back().get()](ipc::Process p) {
                                return srv->run(p);
                              }));
  }
  chain.back()->put_file("payload.dat", "end of the chain");
  for (int i = 0; i < kHops; ++i) {
    chain[static_cast<std::size_t>(i)]->put_link(
        "next",
        {pids[static_cast<std::size_t>(i) + 1], naming::kDefaultContext});
  }

  // The user's prefixes: [chain] = first server, [metrics] = the domain
  // metrics registry mounted as an ordinary CSNH context.
  servers::MetricsServer metrics_srv;
  const auto metrics_pid =
      ws.spawn("metrics", [&](ipc::Process p) { return metrics_srv.run(p); });
  servers::ContextPrefixServer prefixes("tracer-demo");
  prefixes.define("chain", {.target = {pids[0], naming::kDefaultContext}});
  prefixes.define("metrics",
                  {.target = {metrics_pid, naming::kDefaultContext}});
  ws.spawn("prefix-server", [&](ipc::Process p) { return prefixes.run(p); });

  ws.spawn("client", [&](ipc::Process self) -> sim::Co<void> {
    auto rt = co_await svc::Rt::attach(self,
                                       {pids[0], naming::kDefaultContext});
    std::printf("opening [chain]next/next/next/payload.dat "
                "(%d server boundaries)\n", kHops);
    auto opened = co_await rt.open("[chain]next/next/next/payload.dat",
                                   naming::wire::kOpenRead);
    if (opened.ok()) {
      svc::File f = opened.take();
      auto bytes = co_await f.read_all();
      if (bytes.ok()) {
        std::printf("  content: %.*s\n",
                    static_cast<int>(bytes.value().size()),
                    reinterpret_cast<const char*>(bytes.value().data()));
      }
      (void)co_await f.close();
    }

    std::printf("\nreading counters back through the [metrics] context:\n");
    co_await read_metric(rt, "[metrics]fs3/requests");
    co_await read_metric(rt, "[metrics]ipc/forwards");
    co_await read_metric(rt, "[metrics]lint/requests_checked");
  });

  dom.run();
  if (dom.process_failures() != 0) {
    std::fprintf(stderr, "FAILED: %s\n", dom.first_failure().c_str());
    return 1;
  }

  // Render the richest trace (the multi-hop open) as an indented tree.
  std::map<std::uint64_t, int> spans_per_trace;
  for (const auto& span : dom.tracer().spans()) {
    ++spans_per_trace[span.trace_id];
  }
  std::uint64_t best = 0;
  int best_count = 0;
  for (const auto& [trace, count] : spans_per_trace) {
    if (count > best_count) {
      best = trace;
      best_count = count;
    }
  }
  std::printf("\nhop tree of the deepest trace (#%llu of %llu):\n%s",
              static_cast<unsigned long long>(best),
              static_cast<unsigned long long>(dom.tracer().trace_count()),
              dom.tracer().render_text(best).c_str());

  if (!dom.tracer().write_chrome_json(out_path)) {
    std::fprintf(stderr, "FAILED: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nChrome trace written to %s — open it in Perfetto "
              "(ui.perfetto.dev) or chrome://tracing\n", out_path.c_str());

  std::printf("\nevent-loop hotspots (dispatches, host wall time):\n");
  for (const auto& f : dom.top_fibers(5)) {
    std::printf("  %-20s pid=0x%08x %8llu dispatches %10.3f ms wall\n",
                f.name.c_str(), f.pid,
                static_cast<unsigned long long>(f.dispatches),
                static_cast<double>(f.wall_ns) / 1e6);
  }
  std::printf("\ntrace_resolution completed in %.2f simulated ms\n",
              sim::to_ms(dom.now()));
  return 0;
}
