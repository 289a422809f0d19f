// vbench: one workload per process, measured end to end and layer by layer.
//
//   vbench --workload W [--seed N] [--seconds S] [--trace out.json] [--smoke]
//
// Order of a run: the paper calibration probe, the machine floor probe, one
// discarded warm-up repeat, then timed repeats until --seconds of host time
// have passed (at least three), then set-up-only builds until set-up time
// has kSetupSamples samples.  Simulated metrics must agree exactly across
// repeats; host metrics are the median over the timed repeats.  --trace
// adds a traced repeat after each untraced one, checks that tracing changed
// no simulated number, writes the first traced repeat's Chrome JSON, and
// prints the per-layer table.
//
// The last line of stdout is one JSON object with every metric this mode
// measured; any correctness failure also exits 1.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "vbench.hpp"

namespace vbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Paper E4 opens and the E4-cached gate on them.
constexpr double kPaperDirectMs = 3.70;
constexpr double kPaperPrefixMs = 7.69;
constexpr double kPaperGatePct = 5.0;

/// Set-up time is a few milliseconds, so one sample is at the mercy of a
/// single page fault; the reported value is the median of this many.
constexpr std::size_t kSetupSamples = 15;

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Nearest-rank percentile of `v` (q in (0, 1]); 0 for no samples.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

template <typename Fn>
double median_of(const std::vector<HostCost>& costs, Fn fn) {
  std::vector<double> v;
  for (const HostCost& c : costs) v.push_back(fn(c));
  return median(std::move(v));
}

/// Every simulated metric: a pure function of (workload, seed, size).
std::vector<Metric> sim_metrics(const SimOutcome& s) {
  const auto u = [](std::uint64_t x) { return static_cast<double>(x); };
  const double ok_total = u(s.ok_total);
  const auto& r = s.router;
  const double retries =
      u(r.stale_retries + r.noreply_retries + r.busy_retries);
  std::vector<double> mutate = s.calls.create;
  mutate.insert(mutate.end(), s.calls.remove.begin(), s.calls.remove.end());
  return {
      {"op_p50_ms", "sim_ms", percentile(s.op_ms, 0.50)},
      {"op_p99_ms", "sim_ms", percentile(s.op_ms, 0.99)},
      {"ops_per_sim_s", "ops/sim_s", ratio(u(s.ok), s.window_s)},
      {"ok_ratio", "ratio", ratio(u(s.ok), u(s.attempted))},
      {"fail_ratio", "ratio", ratio(u(s.failed), u(s.attempted))},
      {"mutate_p99_ms", "sim_ms", percentile(std::move(mutate), 0.99)},
      {"op_samples", "count", u(s.op_ms.size())},
      {"sim.events", "count", u(s.events)},
      {"sim.actions_heap", "count", u(s.actions_heap)},
      {"sim.wheel_cascades", "count", u(s.wheel_cascades)},
      {"ipc.msgs_per_op", "msgs/op", ratio(u(s.ipc.messages_sent), ok_total)},
      {"ipc.forwards_per_op", "fwds/op", ratio(u(s.ipc.forwards), ok_total)},
      {"ipc.remote_share", "ratio",
       ratio(u(s.ipc.remote_messages), u(s.ipc.messages_sent))},
      {"ipc.bytes_moved_per_op", "B/op", ratio(u(s.ipc.bytes_moved), ok_total)},
      {"servers.fabric.sheds", "count", u(s.fabric_sheds)},
      {"servers.fabric.handoff_ms", "sim_ms",
       ratio(s.handoff_ms_sum, u(s.handoffs))},
      {"servers.fabric.handback_ms", "sim_ms",
       ratio(s.handback_ms_sum, u(s.handbacks))},
      {"svc.router.map_fetches", "count", u(r.map_fetches)},
      {"svc.router.stale_retries", "count", u(r.stale_retries)},
      {"svc.router.noreply_retries", "count", u(r.noreply_retries)},
      {"svc.router.busy_retries", "count", u(r.busy_retries)},
      {"svc.router.failures", "count", u(r.failures)},
      {"svc.router.first_try_ratio", "ratio",
       ratio(u(r.opens), u(r.opens) + retries)},
      {"svc.cache.hit_ratio", "ratio",
       ratio(u(s.cache_hits), u(s.cache_hits + s.cache_misses))},
      {"svc.cache.stale_ratio", "ratio",
       ratio(u(s.cache_stale), u(s.cache_hits))},
      {"svc.cache.fallbacks", "count", u(s.cache_fallbacks)},
      {"svc.open_ms.p50", "sim_ms", percentile(s.calls.open, 0.5)},
      {"svc.read_ms.p50", "sim_ms", percentile(s.calls.read, 0.5)},
      {"svc.close_ms.p50", "sim_ms", percentile(s.calls.close, 0.5)},
      {"svc.create_ms.p50", "sim_ms", percentile(s.calls.create, 0.5)},
      {"svc.remove_ms.p50", "sim_ms", percentile(s.calls.remove, 0.5)},
      {"fault.crashes", "count", u(s.crashes)},
      {"fault.restarts", "count", u(s.restarts)},
      {"fault.retransmits", "count", u(s.retransmits)},
      {"fault.stale_replies_dropped", "count", u(s.stale_replies_dropped)},
  };
}

/// The simulated metrics and correctness counters as one exact string:
/// repeats (traced or not) must produce it byte for byte.
std::string fingerprint(const SimOutcome& s) {
  std::string out;
  char buf[96];
  for (const Metric& m : sim_metrics(s)) {
    std::snprintf(buf, sizeof buf, "%s=%.17g;", m.name.c_str(), m.value);
    out += buf;
  }
  std::snprintf(buf, sizeof buf, "ok_total=%llu;wrong=%llu",
                static_cast<unsigned long long>(s.ok_total),
                static_cast<unsigned long long>(s.wrong));
  return out + buf;
}

struct Args {
  RunConfig cfg;
  double seconds = 10;
  bool traced = false;
  std::string trace_path;
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--smoke") {
      args.cfg.smoke = true;
    } else if (flag == "--workload" && has_value) {
      const auto w = parse_workload(argv[++i]);
      if (!w) return false;
      args.cfg.workload = *w;
      have_workload = true;
    } else if (flag == "--seed" && has_value) {
      char* end = nullptr;
      args.cfg.seed = std::strtoull(argv[++i], &end, 0);
      if (*end != '\0') return false;
    } else if (flag == "--seconds" && has_value) {
      char* end = nullptr;
      args.seconds = std::strtod(argv[++i], &end);
      if (*end != '\0' || !(args.seconds >= 0)) return false;
    } else if (flag == "--trace" && has_value) {
      args.traced = true;
      args.trace_path = argv[++i];
    } else {
      return false;
    }
  }
  return have_workload;
}

/// Correctness gates of one repeat; prints each failure.
bool repeat_ok(const RunConfig& cfg, const SimOutcome& s) {
  bool ok = true;
  auto fail = [&ok](const std::string& why) {
    std::fprintf(stderr, "VBENCH FAILURE: %s\n", why.c_str());
    ok = false;
  };
  if (s.wrong != 0) fail(std::to_string(s.wrong) + " wrong replies");
  if (s.process_failures != 0) fail("process failure: " + s.first_failure);
  if (s.clients_done != s.clients) {
    fail(std::to_string(s.clients_done) + "/" + std::to_string(s.clients) +
         " clients finished");
  }
  if (s.attempted == 0) fail("no operation started in the measured window");
  if (cfg.workload == Workload::kDayChurn &&
      (s.handoffs != 3 || s.handbacks != 3)) {
    fail("churn cycles incomplete: " + std::to_string(s.handoffs) +
         " handoffs, " + std::to_string(s.handbacks) + " handbacks");
  }
  return ok;
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
}

int run(const Args& args) {
  const RunConfig& cfg = args.cfg;
  std::printf("vbench %s seed %llu%s\n",
              std::string(name_of(cfg.workload)).c_str(),
              static_cast<unsigned long long>(cfg.seed),
              cfg.smoke ? " (smoke)" : "");
  bool correct = true;

  const Calibration cal = calibrate();
  const double err_direct =
      100.0 * (cal.direct_remote_ms - kPaperDirectMs) / kPaperDirectMs;
  const double err_prefix =
      100.0 * (cal.prefix_remote_ms - kPaperPrefixMs) / kPaperPrefixMs;
  std::printf("  calibration: direct remote open %.3f ms (paper %.2f, %+.2f%%),"
              " via [prefix] %.3f ms (paper %.2f, %+.2f%%)\n",
              cal.direct_remote_ms, kPaperDirectMs, err_direct,
              cal.prefix_remote_ms, kPaperPrefixMs, err_prefix);
  if (std::fabs(err_direct) > kPaperGatePct ||
      std::fabs(err_prefix) > kPaperGatePct) {
    std::fprintf(stderr, "VBENCH FAILURE: calibration off the paper by more "
                         "than %.0f%%\n", kPaperGatePct);
    correct = false;
  }

  std::vector<double> floors;
  for (int i = 0; i < 3; ++i) {
    floors.push_back(floor_events_per_s(cfg.smoke ? 100'000 : 700'000));
  }
  const double floor = median(floors);
  std::printf("  floor: %.0f events per host second (empty event loop)\n",
              floor);

  // Only the first timed repeat's outcome is kept: the rest must match it
  // exactly, and holding every repeat's samples would make peak RSS grow
  // with the number of repeats the host managed.
  std::optional<SimOutcome> sim;
  std::optional<TraceLayers> layers;
  std::vector<HostCost> untraced;
  std::vector<HostCost> traced;
  std::string expect;
  auto check = [&](const SimOutcome& s) {
    correct = repeat_ok(cfg, s) && correct;
    const std::string fp = fingerprint(s);
    if (expect.empty()) expect = fp;
    if (fp != expect) {
      std::fprintf(stderr, "VBENCH FAILURE: simulated metrics differ between "
                           "repeats of one seed\n  %s\n  %s\n",
                   expect.c_str(), fp.c_str());
      correct = false;
    }
  };
  RunConfig traced_cfg = cfg;
  traced_cfg.trace_rate =
      cfg.workload == Workload::kDaySteady || cfg.workload == Workload::kDayChurn
          ? 1.0 / 16
          : 1.0 / 4;
  bool wrote = true;
  if (!cfg.smoke) check(run_repeat(cfg, "", wrote).sim);  // warm-up
  const std::size_t min_repeats = cfg.smoke ? 1 : 3;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  do {
    Repeat r = run_repeat(cfg, "", wrote);
    check(r.sim);
    untraced.push_back(r.host);
    std::printf("  repeat %zu: setup %.4f ref s, run %.4f wall s = %.4f ref "
                "s, %.0f ops/ref s (probe %.2fM ops/s)\n",
                untraced.size(), r.host.setup_s, r.host.run_wall_s,
                r.host.run_s,
                static_cast<double>(r.sim.ok_total) / r.host.run_s,
                r.host.probe_rate / 1e6);
    if (!sim) sim = std::move(r.sim);
    if (args.traced) {
      Repeat t = run_repeat(traced_cfg, layers ? "" : args.trace_path, wrote);
      check(t.sim);
      traced.push_back(t.host);
      if (!layers) layers = std::move(t.layers);
      if (!wrote) {
        std::fprintf(stderr, "VBENCH FAILURE: cannot write %s\n",
                     args.trace_path.c_str());
        correct = false;
      }
    }
  } while (untraced.size() < min_repeats || Clock::now() < deadline);

  std::vector<double> setups;
  for (const HostCost& c : untraced) setups.push_back(c.setup_s);
  while (setups.size() < kSetupSamples) setups.push_back(setup_seconds(cfg));

  const auto ok_total = static_cast<double>(sim->ok_total);
  const auto events = static_cast<double>(sim->events);
  const auto ops_per_ref_s = [&](const HostCost& c) {
    return ok_total / c.run_s;
  };
  const double ops_per_ref = median_of(untraced, ops_per_ref_s);
  const double events_per_s = median_of(
      untraced, [&](const HostCost& c) { return events / c.run_wall_s; });
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  std::vector<Metric> metrics = sim_metrics(*sim);
  const std::vector<Metric> host = {
      {"ops_per_ref_s", "ops/ref_s", ops_per_ref},
      {"setup_s", "s", median(setups)},
      {"peak_rss_mb", "MiB", static_cast<double>(usage.ru_maxrss) / 1024.0},
      {"ops_per_host_s", "ops/host_s",
       median_of(untraced,
                 [&](const HostCost& c) { return ok_total / c.run_wall_s; })},
      {"host.probe_ops_per_s", "ops/s",
       median_of(untraced, [](const HostCost& c) { return c.probe_rate; })},
      {"sim.events_per_host_s", "ev/s", events_per_s},
      {"sim.floor_events_per_host_s", "ev/s", floor},
      {"sim.floor_share", "ratio", ratio(events_per_s, floor)},
      {"sim.teardown_s", "s",
       median_of(untraced, [](const HostCost& c) { return c.teardown_s; })},
      {"servers.install_s", "s",
       median_of(untraced, [](const HostCost& c) { return c.install_s; })},
      {"wload.forest_s", "s",
       median_of(untraced, [](const HostCost& c) { return c.forest_s; })},
      {"wload.spawn_s", "s",
       median_of(untraced, [](const HostCost& c) { return c.spawn_s; })},
      {"naming.paper_err_pct.direct", "%", std::fabs(err_direct)},
      {"naming.paper_err_pct.prefix", "%", std::fabs(err_prefix)},
  };
  metrics.insert(metrics.end(), host.begin(), host.end());
  if (layers) {
    const TraceLayers& l = *layers;
    std::vector<Metric> trace = {
        {"ipc.transit_ms_per_txn", "sim_ms/txn", l.transit_ms_per_txn},
        {"naming.hops_per_open", "hops/open", l.hops_per_open},
    };
    for (std::size_t c = 0; c < kClasses; ++c) {
      const std::string stem = "servers." + std::string(kClassNames[c]);
      trace.push_back(
          {stem + ".queue_ms_per_op", "sim_ms/op", l.queue_ms_per_op[c]});
      trace.push_back(
          {stem + ".service_ms_per_op", "sim_ms/op", l.service_ms_per_op[c]});
    }
    trace.insert(
        trace.end(),
        {
            {"servers.shard.busy_share_max", "ratio", l.shard_busy_share_max},
            {"obs.spans", "count", static_cast<double>(l.spans)},
            {"obs.trace_overhead", "ratio",
             1.0 - median_of(traced, ops_per_ref_s) / ops_per_ref},
        });
    metrics.insert(metrics.end(), trace.begin(), trace.end());
    print_layers(l);
  }

  std::printf("\n  %-34s %22s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::printf("  %-34s %22.6f  %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("  op_p99_ms from %zu op samples in a %.1f s simulated window, "
              "%zu closed-loop clients; %zu timed repeats%s\n",
              sim->op_ms.size(), sim->window_s, sim->clients, untraced.size(),
              args.traced ? " (+ as many traced)" : "");
  if (!cfg.smoke && sim->op_ms.size() < 1000) {
    std::printf("  note: fewer than 1000 op samples; op_p99_ms has fewer "
                "than 10 samples beyond it\n");
  }
  print_json(correct, sim->attempted, sim->failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace vbench

int main(int argc, char** argv) {
#ifdef __GLIBC__
  // A fixed threshold: blocks above it are mmapped and return to the system
  // when freed.  glibc otherwise raises the threshold as such blocks are
  // freed, the heap fragments, and peak RSS drifts with how many repeats
  // the host had time for.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
  vbench::Args args;
  if (!vbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: vbench --workload day-steady|day-churn|resolve-chain|"
                 "cached-mutate [--seed N] [--seconds S] [--trace out.json] "
                 "[--smoke]\n");
    return 2;
  }
  return vbench::run(args);
}
