// E12 (engine raw speed): events per wall-second and simulated message
// transactions per wall-second, on three workloads that bracket the
// simulator's hot paths:
//
//   timer-churn        pure EventLoop scheduling: a fixed population of
//                      self-rescheduling timers with a mixed delay profile
//                      (immediate wakes, sub-ms hops, long timeouts) — the
//                      queue and the action representation, nothing else.
//   ping-pong          kernel IPC: one client Send/Receive/Reply looping
//                      against a remote echo server — envelope delivery,
//                      pid lookup, fiber resumption.
//   resolution-storm   9 CSNH servers (1 prefix + 8 chained file servers),
//                      16 concurrent clients opening names of increasing
//                      forwarding depth — the full naming stack.
//
// Simulated times (sim_ms and the report rows) are deterministic and must
// stay bit-identical across engine changes; wall-clock throughput is the
// number this bench exists to track (BENCH_engine.json + the ci.sh `perf`
// stage, which fails on >25% regression of timer-churn events/s).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "naming/protocol.hpp"

using namespace v;
using sim::Co;
using sim::to_ms;

namespace {

/// splitmix64: cheap deterministic delay source for the churn workload
/// (mt19937 call overhead would smear the number being measured).
std::uint64_t next_rand(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t x = state;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct WorkloadResult {
  std::uint64_t events = 0;  ///< events executed by the loop
  std::uint64_t txns = 0;    ///< simulated message transactions (Send→Reply)
  sim::SimTime sim_ns = 0;   ///< simulated time the workload covered
};

/// One self-rescheduling timer: fires, draws a new delay, re-arms until the
/// shared budget is spent.  The delay profile mixes the three populations a
/// real run schedules: immediate wakes (waker events), sub-millisecond
/// hops, and long timeouts.
void arm_timer(sim::EventLoop& loop, std::uint64_t& budget,
               std::uint64_t& rng) {
  if (budget == 0) return;
  --budget;
  const std::uint64_t r = next_rand(rng);
  sim::SimDuration delay;
  switch (r & 3) {
    case 0:
      delay = 0;  // immediate wake (the Waker path)
      break;
    case 1:
    case 2:
      delay = static_cast<sim::SimDuration>((r >> 2) % (2 * sim::kMillisecond));
      break;
    default:
      delay = static_cast<sim::SimDuration>((r >> 2) % (100 * sim::kMillisecond));
      break;
  }
  loop.schedule_after(delay,
                      [&loop, &budget, &rng] { arm_timer(loop, budget, rng); });
}

WorkloadResult run_timer_churn() {
  constexpr std::uint64_t kTimers = 1 << 14;
  constexpr std::uint64_t kEvents = 2'000'000;
  sim::EventLoop loop;
  std::uint64_t budget = kEvents;
  std::uint64_t rng = 0x1984'0601ULL;
  for (std::uint64_t i = 0; i < kTimers; ++i) arm_timer(loop, budget, rng);
  loop.run_until_idle();
  return {loop.events_executed(), 0, loop.now()};
}

WorkloadResult run_ping_pong() {
  // Sized so one run takes ~100 ms of wall time: on CPU-throttled CI
  // hosts a workload much shorter than the throttle period can be
  // swallowed whole by one stall, turning the 25% perf gate into a coin
  // flip.  (timer-churn never had the problem — 2M events amortize any
  // stall; the IPC workloads are sized to the same order.)
  constexpr int kTxns = 200'000;
  ipc::Domain dom;
  auto& ws = dom.add_host("ws1");
  auto& srv = dom.add_host("srv1");
  const auto echo_pid =
      srv.spawn("echo", [](ipc::Process self) -> Co<void> {
        for (;;) {
          auto env = co_await self.receive();
          self.reply(env, msg::make_reply(ReplyCode::kOk));
        }
      });
  bool done = false;
  ws.spawn("pinger", [&, echo_pid](ipc::Process self) -> Co<void> {
    msg::Message ping;
    ping.set_code(0x0200);  // above the protocol ranges' floor; not CSname
    for (int i = 0; i < kTxns; ++i) {
      (void)co_await self.send(ping, echo_pid);
    }
    done = true;
  });
  dom.run();
  if (dom.process_failures() != 0 || !done) {
    std::fprintf(stderr, "BENCH FAILURE: %s\n", dom.first_failure().c_str());
    std::exit(1);
  }
  return {dom.loop().events_executed(), dom.stats().messages_sent,
          dom.now()};
}

WorkloadResult run_resolution_storm() {
  constexpr int kServers = 8;  // file-server chain; +1 prefix server = 9
  constexpr int kClients = 16;
  constexpr int kOpensPerClient = 384;  // ~40 ms/run; see run_ping_pong
  ipc::Domain dom;
  auto& ws = dom.add_host("ws1");
  std::vector<std::unique_ptr<servers::FileServer>> chain;
  std::vector<ipc::ProcessId> pids;
  for (int i = 0; i < kServers; ++i) {
    auto& host = dom.add_host("fs" + std::to_string(i));
    chain.push_back(std::make_unique<servers::FileServer>(
        "fs" + std::to_string(i), servers::DiskModel::kMemory, false));
    chain.back()->put_file("payload.dat", "end of the chain");
    pids.push_back(host.spawn("fs" + std::to_string(i),
                              [srv = chain.back().get()](ipc::Process p) {
                                return srv->run(p);
                              }));
  }
  for (int i = 0; i + 1 < kServers; ++i) {
    chain[static_cast<std::size_t>(i)]->put_link(
        "next", {pids[static_cast<std::size_t>(i) + 1],
                 naming::kDefaultContext});
  }
  servers::ContextPrefixServer prefixes("storm", /*register_service=*/false);
  prefixes.define("root", {.target = {pids[0], naming::kDefaultContext}});
  const auto prefix_pid = ws.spawn(
      "prefix-server", [&prefixes](ipc::Process p) { return prefixes.run(p); });

  int finished = 0;
  for (int c = 0; c < kClients; ++c) {
    ws.spawn("client" + std::to_string(c),
             [&, c](ipc::Process self) -> Co<void> {
               svc::Rt rt(self,
                          {prefix_pid, {pids[0], naming::kDefaultContext}});
               for (int i = 0; i < kOpensPerClient; ++i) {
                 std::string name = "[root]";
                 for (int h = 0; h < (i + c) % 6; ++h) name += "next/";
                 name += "payload.dat";
                 auto opened = co_await rt.open(name, naming::wire::kOpenRead);
                 if (!opened.ok()) {
                   std::fprintf(stderr, "BENCH FAILURE: storm open failed\n");
                   std::exit(1);
                 }
                 svc::File f = opened.take();
                 (void)co_await f.close();
               }
               ++finished;
             });
  }
  dom.run();
  if (dom.process_failures() != 0 || finished != kClients) {
    std::fprintf(stderr, "BENCH FAILURE: %s\n", dom.first_failure().c_str());
    std::exit(1);
  }
  return {dom.loop().events_executed(), dom.stats().messages_sent,
          dom.now()};
}

/// deep-forward: the fetch-once data path isolated.  Every open traverses
/// a fixed 3-forward chain (4 file servers) with a 64-255 byte name, so
/// the name rides NameSpan's pooled path and three downstream hops reuse
/// the first fetch's attachment.  resolution-storm mixes depths 0-5 and
/// short names; this workload is nothing but deep forwarding, which is
/// where fetch-once pays.
WorkloadResult run_deep_forward() {
  constexpr int kServers = 4;  // 3 forwards per open
  constexpr int kClients = 8;
  constexpr int kOpensPerClient = 640;  // ~30 ms/run; see run_ping_pong
  ipc::Domain dom;
  auto& ws = dom.add_host("ws1");
  std::vector<std::unique_ptr<servers::FileServer>> chain;
  std::vector<ipc::ProcessId> pids;
  const std::string hop = "fwd-" + std::string(44, 'x');  // 48-byte component
  const std::string leaf = "payload-" + std::string(24, 'y') + ".dat";
  for (int i = 0; i < kServers; ++i) {
    auto& host = dom.add_host("dfs" + std::to_string(i));
    chain.push_back(std::make_unique<servers::FileServer>(
        "dfs" + std::to_string(i), servers::DiskModel::kMemory, false));
    pids.push_back(host.spawn("dfs" + std::to_string(i),
                              [srv = chain.back().get()](ipc::Process p) {
                                return srv->run(p);
                              }));
  }
  chain.back()->put_file(leaf, "four servers deep");
  for (int i = 0; i + 1 < kServers; ++i) {
    chain[static_cast<std::size_t>(i)]->put_link(
        hop, {pids[static_cast<std::size_t>(i) + 1], naming::kDefaultContext});
  }
  servers::ContextPrefixServer prefixes("deep", /*register_service=*/false);
  prefixes.define("root", {.target = {pids[0], naming::kDefaultContext}});
  const auto prefix_pid = ws.spawn(
      "prefix-server", [&prefixes](ipc::Process p) { return prefixes.run(p); });

  std::string name = "[root]";
  for (int h = 0; h + 1 < kServers; ++h) name += hop + "/";
  name += leaf;

  int finished = 0;
  for (int c = 0; c < kClients; ++c) {
    ws.spawn("client" + std::to_string(c),
             [&](ipc::Process self) -> Co<void> {
               svc::Rt rt(self,
                          {prefix_pid, {pids[0], naming::kDefaultContext}});
               for (int i = 0; i < kOpensPerClient; ++i) {
                 auto opened = co_await rt.open(name, naming::wire::kOpenRead);
                 if (!opened.ok()) {
                   std::fprintf(stderr,
                                "BENCH FAILURE: deep-forward open failed\n");
                   std::exit(1);
                 }
                 svc::File f = opened.take();
                 (void)co_await f.close();
               }
               ++finished;
             });
  }
  dom.run();
  if (dom.process_failures() != 0 || finished != kClients) {
    std::fprintf(stderr, "BENCH FAILURE: %s\n", dom.first_failure().c_str());
    std::exit(1);
  }
  return {dom.loop().events_executed(), dom.stats().messages_sent,
          dom.now()};
}

/// Report one workload's numbers (stdout line + JSON engine block +
/// deterministic coverage row).
void report_workload(const std::string& name, const WorkloadResult& result,
                     double wall_ms) {
  const double wall_s = wall_ms / 1000.0;
  const double events_per_s =
      wall_s > 0 ? static_cast<double>(result.events) / wall_s : 0;
  const double txns_per_s =
      wall_s > 0 ? static_cast<double>(result.txns) / wall_s : 0;
  std::printf(
      "  %-18s %9llu events %8llu txns  %8.1f ms wall  %10.0f ev/s  %9.0f "
      "txn/s\n",
      name.c_str(), static_cast<unsigned long long>(result.events),
      static_cast<unsigned long long>(result.txns), wall_ms, events_per_s,
      txns_per_s);
  bench::JsonReport::instance().add_engine_workload(
      name, result.events, result.txns, wall_ms, to_ms(result.sim_ns));
  // The deterministic half of the report: simulated coverage per workload
  // (bit-identical across engine changes; regressions here mean the engine
  // changed BEHAVIOR, not just speed).
  bench::row(name + " simulated coverage", to_ms(result.sim_ns));
}

/// Run `fn` `repeats` times; report the run with MEDIAN wall time (robust
/// against scheduler noise), and return that wall time.
template <typename Fn>
double measure(const std::string& name, int repeats, Fn&& fn) {
  WorkloadResult result;
  std::vector<double> walls;
  walls.reserve(static_cast<std::size_t>(repeats));
  for (int i = 0; i < repeats; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    result = fn();
    const auto t1 = std::chrono::steady_clock::now();
    walls.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  std::sort(walls.begin(), walls.end());
  report_workload(name, result, walls[walls.size() / 2]);
  return walls[walls.size() / 2];
}

/// The flight recorder's "timer fires" channel, as a Domain installs it.
void record_fire(void* ctx, sim::SimTime at) noexcept {
  static_cast<obs::FlightRecorder*>(ctx)->record(0, obs::FlightKind::kTimer,
                                                 at, 0, 0, 0, 0);
}

/// timer-churn with the flight recorder's fire hook attached to every
/// other slice of kFlightSlice simulated time (~1 ms of wall time).  Each
/// pair of adjacent slices — hooked first on odd pairs, plain first on
/// even ones — gives one hooked/plain ratio of wall ns per event.  The two
/// slices of a pair run a millisecond apart, so a busy neighbour or a
/// frequency shift hits both and cancels in the ratio; the median over
/// the run's pairs discards the pairs it hit unevenly.  The firing order
/// is timer-churn's own: the hook only observes, and a slice boundary
/// only returns from run_until.  Appends the pair ratios to `ratios`.
WorkloadResult run_timer_churn_flight(std::vector<double>& ratios) {
  constexpr std::uint64_t kTimers = 1 << 14;
  constexpr std::uint64_t kEvents = 2'000'000;
  constexpr sim::SimDuration kFlightSlice = 5 * sim::kMillisecond;
  constexpr std::uint64_t kMinSliceEvents = 1'000;
  sim::EventLoop loop;
  obs::FlightRecorder recorder;
  std::uint64_t budget = kEvents;
  std::uint64_t rng = 0x1984'0601ULL;
  for (std::uint64_t i = 0; i < kTimers; ++i) arm_timer(loop, budget, rng);
  sim::SimTime until = 0;
  auto slice = [&](bool hooked, std::uint64_t& events) {
    if (hooked) {
      loop.set_fire_hook(&record_fire, &recorder);
    } else {
      loop.set_fire_hook(nullptr, nullptr);
    }
    const std::uint64_t before = loop.events_executed();
    until += kFlightSlice;
    const auto t0 = std::chrono::steady_clock::now();
    loop.run_until(until);
    const auto t1 = std::chrono::steady_clock::now();
    events = loop.events_executed() - before;
    return std::chrono::duration<double, std::nano>(t1 - t0).count();
  };
  // Slice while timers still re-arm; the tail (the last arms draining, no
  // new work) runs unmeasured to idle, so now() ends on the last event.
  for (int pair = 0; budget > 0; ++pair) {
    const bool hooked_first = pair % 2 == 1;
    std::uint64_t first_events = 0;
    std::uint64_t second_events = 0;
    const double first_ns = slice(hooked_first, first_events);
    const double second_ns = slice(!hooked_first, second_events);
    if (first_events < kMinSliceEvents || second_events < kMinSliceEvents) {
      continue;
    }
    const double first = first_ns / static_cast<double>(first_events);
    const double second = second_ns / static_cast<double>(second_events);
    ratios.push_back(hooked_first ? first / second : second / first);
  }
  loop.set_fire_hook(&record_fire, &recorder);
  loop.run_until_idle();
  return {loop.events_executed(), 0, loop.now()};
}

/// The flight-recorder overhead pair.  timer-churn is measured as usual;
/// timer-churn-flight is reported at its wall times the median
/// hooked/plain slice ratio over `repeats` sliced runs, so the events/s
/// ratio of the two rows — what ci.sh obs gates at 5% — IS that median.
void measure_flight_pair(int repeats) {
  const double plain_wall = measure("timer-churn", repeats, run_timer_churn);
  std::vector<double> ratios;
  WorkloadResult flight_result{};
  for (int i = 0; i < repeats; ++i) {
    flight_result = run_timer_churn_flight(ratios);
  }
  std::sort(ratios.begin(), ratios.end());
  const double ratio = ratios[ratios.size() / 2];
  report_workload("timer-churn-flight", flight_result, plain_wall * ratio);
  std::printf("  hooked/plain ns-per-event ratio: median %.4f over %zu "
              "slice pairs (range %.3f-%.3f)\n",
              ratio, ratios.size(), ratios.front(), ratios.back());
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::json_path_from_args(argc, argv);
  const int repeats = std::max(3, bench::repeat_from_args(argc, argv));
  const bool flight = bench::has_flag(argc, argv, "--flight");
  bench::headline("E12", "engine raw speed: events and message transactions "
                         "per wall-second");
  bench::run_info(0, "SunWorkstation3Mbit");
  bench::JsonReport::instance().set_obs_info(1.0, obs::kDefaultFlightCapacity);
  if (flight) {
    std::printf("  --flight: timer-churn-flight hooks the flight recorder "
                "on alternate slices of\n  one run; its wall is "
                "timer-churn's times the median hooked/plain ratio\n");
  }
  std::printf("  %d repeats per workload, median wall time reported\n\n",
              repeats);
  if (flight) {
    measure_flight_pair(repeats);
  } else {
    measure("timer-churn", repeats, run_timer_churn);
  }
  measure("ping-pong", repeats, run_ping_pong);
  measure("resolution-storm", repeats, run_resolution_storm);
  measure("deep-forward", repeats, run_deep_forward);
  bench::note("wall-clock throughput is machine-dependent; the ci.sh perf "
              "stage gates events_per_wall_second against BENCH_engine.json "
              "with 25% tolerance");
  return bench::finish(json_path);
}
