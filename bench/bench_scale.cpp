// E14: the production day — workload engine vs the sharded prefix fabric.
//
// A fleet of simulated client hosts (v::wload) plays one scripted day —
// warm-up, steady state, flash crowd, membership churn — against the global
// prefix mapping served by a shard fabric (servers/shard_fabric.hpp).  Two
// questions, straight from the ROADMAP's scale-out item:
//
//   1. THROUGHPUT: a single receptionist + worker team saturates at
//      workers / prefix_processing (E7).  Partitioning the prefix space
//      over S single-host teams must scale that ceiling; the acceptance
//      bar is >= 4x the single-team saturation throughput at 8 shards.
//   2. SAFETY UNDER CHURN: crash a shard mid-day and restart it.  The
//      handoff/handback choreography plus the PR 4 expected-generation
//      check must keep every reply either correct or refused — the content
//      oracle (Forest::content_for) must count ZERO wrong replies.
//
// Every number in the report is simulated time, so the JSON is
// byte-identical per seed; `--smoke` runs a shrunken day for the CI gate
// (scripts/ci.sh scale), which diffs two runs to prove exactly that.
#include "bench_util.hpp"

#include <memory>

#include "fault/fault.hpp"
#include "servers/shard_fabric.hpp"
#include "wload/driver.hpp"
#include "wload/forest.hpp"
#include "wload/scenario.hpp"

using namespace v;
using sim::kMillisecond;

namespace {

/// Flash-crowd p99 SLO budget (simulated ms): the hot shard saturates by
/// design, so the p99 open rides a full work queue.  The budget is the
/// full-queue drain bound — queue_cap (256) opens at the team's unit
/// service time (prefix_processing / workers = 3.5 ms / 4) is ~224 ms —
/// plus hops and one kBusy retry beat of slack.
constexpr double kFlashP99BudgetMs = 300.0;

struct CellParams {
  std::size_t shards = 1;
  std::size_t hosts = 128;
  bool churn = false;  ///< crash + restart a shard during the churn phase
};

struct DayResult {
  bench::JsonReport::ScaleCell cell;
  bool failed = false;
};

/// Run one full production day at one shard count and reduce it to a cell.
DayResult run_day(const std::string& label, const CellParams& params,
                  const wload::ForestSpec& forest_spec,
                  const wload::Scenario& scenario, std::uint64_t seed) {
  ipc::Domain dom(ipc::CalibrationParams::SunWorkstation3Mbit());
  if (seed != 0) dom.loop().enable_fuzz(seed);

  wload::Forest forest(forest_spec);
  // The storage pool must never be the bottleneck (the sweep measures the
  // NAMING fabric): 8 team-of-4 file servers clear ~10x the widest cell's
  // open+read+close demand.
  std::vector<std::unique_ptr<servers::FileServer>> fs;
  std::vector<servers::FileServer*> fs_ptrs;
  std::vector<ipc::ProcessId> fs_pids;
  for (int i = 0; i < 8; ++i) {
    ipc::Host& host = dom.add_host("fs" + std::to_string(i));
    fs.push_back(std::make_unique<servers::FileServer>(
        "fs" + std::to_string(i), servers::DiskModel::kMemory,
        /*register_service=*/false,
        naming::TeamConfig{.workers = 4, .queue_cap = 256}));
    servers::FileServer* srv = fs.back().get();
    fs_ptrs.push_back(srv);
    fs_pids.push_back(
        host.spawn("fs", [srv](ipc::Process p) { return srv->run(p); }));
  }

  // Deep queues: the 1-shard cell saturates by design, and the bench
  // measures queueing, not shedding.
  servers::ShardFabric fabric(
      dom, {.shards = params.shards,
            .team = {.workers = 4, .queue_cap = 256}});
  fabric.install(forest.install(fs_ptrs, fs_pids));

  fault::FaultPlan plan(0xE14);
  if (params.churn) {
    // Kill one mid-map shard shortly after the churn phase opens; bring it
    // back two-thirds through, so the day exercises handoff AND handback
    // under full load.
    sim::SimDuration churn_start = 0;
    sim::SimDuration churn_len = 0;
    for (const wload::Phase& p : scenario.phases) {
      if (p.kind == wload::PhaseKind::kChurn) {
        churn_len = p.duration;
        break;
      }
      churn_start += p.duration;
    }
    const std::size_t victim = params.shards / 2;
    plan.crash_at(churn_start + churn_len / 8, fabric.host(victim).id(),
                  [&fabric, victim] { fabric.on_crash(victim); });
    plan.restart_at(churn_start + (churn_len * 2) / 3,
                    fabric.host(victim).id(),
                    [&fabric, victim] { fabric.on_restart(victim); });
    dom.install_faults(plan);
  }

  wload::Driver::Config cfg;
  cfg.hosts = params.hosts;
  cfg.fabric_group = fabric.group();
  cfg.scenario = scenario;
  wload::Driver driver(dom, forest, cfg);
  dom.run();

  DayResult result;
  if (dom.process_failures() != 0) {
    std::fprintf(stderr, "BENCH FAILURE: %s\n", dom.first_failure().c_str());
    result.failed = true;
    return result;
  }
  if (driver.clients_done() != params.hosts) {
    std::fprintf(stderr, "BENCH FAILURE: %zu/%zu clients finished\n",
                 driver.clients_done(), params.hosts);
    result.failed = true;
    return result;
  }

  obs::LogHistogram all_ms;
  double flash_p99 = 0;
  for (const wload::PhaseStats& p : driver.phases()) {
    if (p.kind == wload::PhaseKind::kFlash) {
      flash_p99 = p.open_ms.percentile(0.99);
    }
  }
  // The cell's latency AND throughput both come from the first steady
  // window: that is the saturation-throughput measurement the scaling gate
  // compares (the flash and churn phases are scripted STRESSES — their
  // queueing says nothing about fabric capacity, and folding them in would
  // understate every multi-shard cell by the same hot-shard ceiling).
  double steady_per_s = 0;
  for (const wload::PhaseStats& p : driver.phases()) {
    if (p.kind == wload::PhaseKind::kSteady) {
      all_ms = p.open_ms;  // first steady window
      steady_per_s = p.throughput_per_s();
      break;
    }
  }

  bench::JsonReport::ScaleCell& cell = result.cell;
  cell.cell = label;
  cell.shards = params.shards;
  cell.hosts = params.hosts;
  cell.opens = driver.total_opens();
  cell.errors = driver.total_errors();
  cell.wrong = driver.wrong_replies();
  cell.throughput_per_s = steady_per_s;
  cell.p50_ms = all_ms.percentile(0.50);
  cell.p99_ms = all_ms.percentile(0.99);
  cell.flash_p99_ms = flash_p99;
  const svc::ShardRouter::Stats& rs = driver.router_stats();
  cell.map_fetches = rs.map_fetches;
  cell.stale_retries = rs.stale_retries;
  cell.noreply_retries = rs.noreply_retries;
  cell.handoffs = fabric.churn_stats().handoffs;
  cell.handbacks = fabric.churn_stats().handbacks;
  return result;
}

void print_cell(const bench::JsonReport::ScaleCell& c) {
  char line[160];
  std::snprintf(line, sizeof(line),
                "%s: shards=%zu hosts=%zu  %.0f opens/s  p50 %.1f ms  "
                "p99 %.1f ms  flash p99 %.1f ms",
                c.cell.c_str(), c.shards, c.hosts, c.throughput_per_s,
                c.p50_ms, c.p99_ms, c.flash_p99_ms);
  bench::note(line);
  std::snprintf(line, sizeof(line),
                "    opens=%llu errors=%llu wrong=%llu fetches=%llu "
                "stale=%llu noreply=%llu handoffs=%llu handbacks=%llu",
                static_cast<unsigned long long>(c.opens),
                static_cast<unsigned long long>(c.errors),
                static_cast<unsigned long long>(c.wrong),
                static_cast<unsigned long long>(c.map_fetches),
                static_cast<unsigned long long>(c.stale_retries),
                static_cast<unsigned long long>(c.noreply_retries),
                static_cast<unsigned long long>(c.handoffs),
                static_cast<unsigned long long>(c.handbacks));
  bench::note(line);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::json_path_from_args(argc, argv);
  const std::uint64_t seed = bench::seed_from_args(argc, argv);
  const bool smoke = bench::has_flag(argc, argv, "--smoke");

  bench::headline("E14", smoke
      ? "Production day at scale (smoke): shard sweep + churn"
      : "Production day at scale: shard sweep + churn");
  bench::run_info(seed, "SunWorkstation3Mbit");
  {
    const ipc::Domain probe;
    bench::obs_info(probe);
  }
  bench::note("workload: v::wload production day (warm-up, steady, flash");
  bench::note("crowd, churn, cool-down) against the sharded prefix fabric;");
  bench::note("every shard is one receptionist + 4-worker team on its own");
  bench::note("host.  Throughput counts successful opens in the first steady");
  bench::note("phase, per simulated second of that phase.");

  wload::ForestSpec forest_spec;
  wload::Scenario scenario = wload::Scenario::production_day(seed == 0 ? 1 : seed);
  std::vector<CellParams> sweep;
  CellParams churn_cell;
  if (smoke) {
    forest_spec.prefixes = 8;
    forest_spec.dirs_per_prefix = 2;
    forest_spec.files_per_dir = 2;
    scenario.think_min = 5 * kMillisecond;
    scenario.think_max = 15 * kMillisecond;
    scenario.phases = {
        {.kind = wload::PhaseKind::kWarmup, .duration = 200 * kMillisecond},
        {.kind = wload::PhaseKind::kSteady, .duration = 800 * kMillisecond},
        {.kind = wload::PhaseKind::kFlash, .duration = 500 * kMillisecond,
         .hot_fraction = 0.4, .hot_prefix = 0},
        {.kind = wload::PhaseKind::kChurn, .duration = 1000 * kMillisecond},
        {.kind = wload::PhaseKind::kSteady, .duration = 300 * kMillisecond},
    };
    sweep = {{.shards = 1, .hosts = 12}, {.shards = 2, .hosts = 12}};
    churn_cell = {.shards = 2, .hosts = 8, .churn = true};
  } else {
    // Production-scale forest.  The prefix count bounds the achievable
    // speedup: the hottest prefix maps to exactly ONE shard, so its Zipf
    // share p1 ~ 1/H(n, alpha) caps the curve at ~1/p1 regardless of shard
    // count.  256 prefixes at alpha 0.9 puts p1 at ~12%, far above the 4x
    // gate; 64 prefixes (p1 ~ 18%) measurably was not.
    forest_spec.prefixes = 256;
    forest_spec.dirs_per_prefix = 4;
    forest_spec.files_per_dir = 8;
    scenario.think_min = 8 * kMillisecond;
    scenario.think_max = 24 * kMillisecond;
    sweep = {{.shards = 1, .hosts = 256},
             {.shards = 2, .hosts = 256},
             {.shards = 4, .hosts = 256},
             {.shards = 8, .hosts = 256}};
    churn_cell = {.shards = 8, .hosts = 64, .churn = true};
  }

  double single_team = 0;
  double eight_shards = 0;
  double flash_p99_widest = 0;
  for (const CellParams& params : sweep) {
    char label[32];
    std::snprintf(label, sizeof(label), "shards=%zu", params.shards);
    const DayResult r = run_day(label, params, forest_spec, scenario, seed);
    if (!r.failed) print_cell(r.cell);
    if (r.failed || r.cell.wrong != 0 || r.cell.errors != 0) return 1;
    bench::JsonReport::instance().add_scale_cell(r.cell);
    bench::row(std::string(label) + "  steady p99", r.cell.p99_ms);
    if (params.shards == 1) single_team = r.cell.throughput_per_s;
    if (params.shards == sweep.back().shards) {
      eight_shards = r.cell.throughput_per_s;
      flash_p99_widest = r.cell.flash_p99_ms;
    }
  }

  const DayResult churn =
      run_day("churn", churn_cell, forest_spec, scenario, seed);
  if (churn.failed) return 1;
  print_cell(churn.cell);
  bench::JsonReport::instance().add_scale_cell(churn.cell);
  bench::row("churn  steady p99", churn.cell.p99_ms);

  char line[128];
  const double speedup = single_team > 0 ? eight_shards / single_team : 0;
  std::snprintf(line, sizeof(line),
                "throughput %zu shards vs 1: %.1fx%s", sweep.back().shards,
                speedup, smoke ? " (informational in smoke)"
                               : " (target >= 4x)");
  bench::note(line);
  std::snprintf(line, sizeof(line),
                "flash-crowd p99 at widest sweep: %.1f ms (budget %.0f ms)",
                flash_p99_widest, kFlashP99BudgetMs);
  bench::note(line);
  std::snprintf(line, sizeof(line),
                "churn day: %llu wrong replies, %llu exhausted opens "
                "(both must be 0)",
                static_cast<unsigned long long>(churn.cell.wrong),
                static_cast<unsigned long long>(churn.cell.errors));
  bench::note(line);

  // Smoke days are too small to saturate a team, so they gate determinism
  // and safety only; the full day also gates the scaling curve.
  const bool pass = (smoke || speedup >= 4.0) &&
                    flash_p99_widest <= kFlashP99BudgetMs &&
                    churn.cell.wrong == 0 && churn.cell.errors == 0 &&
                    churn.cell.handoffs == 1 && churn.cell.handbacks == 1;
  bench::note(pass ? "ACCEPTANCE: PASS" : "ACCEPTANCE: FAIL");
  return bench::finish(json_path, pass ? 0 : 1);
}
