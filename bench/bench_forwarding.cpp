// E6 / Figure 4 (paper section 5.8): the naming forest and cross-server
// pointers.  Measures name interpretation latency as a function of the
// forwarding chain length, and runs the ablation DESIGN.md calls out:
// server-to-server FORWARDING of partially-interpreted requests versus a
// client that iterates (MapContextName per server, then the final open).
#include "bench_util.hpp"
#include "naming/protocol.hpp"

using namespace v;
using sim::Co;
using sim::to_ms;

int main(int argc, char** argv) {
  const std::string json_path = bench::json_path_from_args(argc, argv);
  const std::string metrics_path = bench::flag_value(argc, argv, "--metrics");
  const std::string trace_path = bench::flag_value(argc, argv, "--trace");
  bench::headline("E6 / Fig.4",
                  "cross-server name interpretation: forwarding vs client "
                  "iteration");

  constexpr int kMaxHops = 6;
  ipc::Domain dom;
  // V-trace: spans carry simulated time only, so tracing the run cannot
  // change any measured number (`ci.sh obs` diffs the two reports).
  if (!trace_path.empty()) dom.tracer().enable();
  auto& ws = dom.add_host("ws1");
  // A chain of file servers, each holding a link to the next.
  std::vector<std::unique_ptr<servers::FileServer>> chain;
  std::vector<ipc::ProcessId> pids;
  for (int i = 0; i <= kMaxHops; ++i) {
    auto& host = dom.add_host("fs" + std::to_string(i));
    chain.push_back(std::make_unique<servers::FileServer>(
        "fs" + std::to_string(i), servers::DiskModel::kMemory, false));
    chain.back()->put_file("payload.dat", "end of the chain");
    pids.push_back(host.spawn("fs" + std::to_string(i),
                              [srv = chain.back().get()](ipc::Process p) {
                                return srv->run(p);
                              }));
  }
  for (int i = 0; i < kMaxHops; ++i) {
    chain[static_cast<std::size_t>(i)]->put_link(
        "next", {pids[static_cast<std::size_t>(i) + 1],
                 naming::kDefaultContext});
  }

  struct RowData {
    int hops;
    double forwarded_ms;
    double iterated_ms;
  };
  std::vector<RowData> rows;
  const bool ok = bench::run_client(dom, ws, [&](ipc::Process self)
                                                  -> Co<void> {
    svc::Rt rt(self, {ipc::ProcessId::invalid(),
                      {pids[0], naming::kDefaultContext}});
    for (int hops = 0; hops <= kMaxHops; ++hops) {
      std::string name;
      for (int i = 0; i < hops; ++i) name += "next/";
      name += "payload.dat";

      // (a) protocol forwarding: one request, servers hand it along.
      rt.set_current({pids[0], naming::kDefaultContext});
      auto t0 = self.now();
      auto opened = co_await rt.open(name, naming::wire::kOpenRead);
      const double forwarded = to_ms(self.now() - t0);
      if (opened.ok()) {
        svc::File f = opened.take();
        (void)co_await f.close();
      }

      // (b) client iteration: MapContextName at each boundary, then open.
      t0 = self.now();
      rt.set_current({pids[0], naming::kDefaultContext});
      for (int i = 0; i < hops; ++i) {
        auto mapped = co_await rt.map_context("next");
        rt.set_current(mapped.value());
      }
      auto opened2 = co_await rt.open("payload.dat", naming::wire::kOpenRead);
      const double iterated = to_ms(self.now() - t0);
      if (opened2.ok()) {
        svc::File f = opened2.take();
        (void)co_await f.close();
      }
      rows.push_back({hops, forwarded, iterated});
    }
  });
  if (!ok) return 1;

  std::printf("  %-10s %18s %18s %10s\n", "link hops", "forwarding (ms)",
              "client-iter (ms)", "ratio");
  for (const auto& r : rows) {
    std::printf("  %-10d %18.2f %18.2f %9.2fx\n", r.hops, r.forwarded_ms,
                r.iterated_ms, r.iterated_ms / r.forwarded_ms);
  }
  bench::note("");
  std::printf("  structural (calibration-independent) totals for the run:\n"
              "  %llu messages, %llu forwards, %llu moves, %llu bytes moved\n",
              static_cast<unsigned long long>(dom.stats().messages_sent),
              static_cast<unsigned long long>(dom.stats().forwards),
              static_cast<unsigned long long>(dom.stats().moves),
              static_cast<unsigned long long>(dom.stats().bytes_moved));
  bench::note("");
  bench::note("shape: forwarding adds ~one network hop + parse per link;");
  bench::note("client iteration pays a FULL round trip per link and");
  bench::note("re-sends the remaining name each time, so the gap widens");
  bench::note("with chain length — the protocol's forwarding rule is the");
  bench::note("right default (paper section 5.4).");
  if (!trace_path.empty()) {
    if (!dom.tracer().write_chrome_json(trace_path)) {
      std::fprintf(stderr, "BENCH FAILURE: cannot write %s\n",
                   trace_path.c_str());
      return 1;
    }
    std::printf("  trace written to %s (%llu traces, %zu spans)\n",
                trace_path.c_str(),
                static_cast<unsigned long long>(dom.tracer().trace_count()),
                dom.tracer().spans().size());
  }
  if (!bench::write_metrics(dom, metrics_path)) return 1;
  return bench::finish(json_path);
}
