// The four vbench workloads, the calibration probe and the floor probe.
//
// Every workload is a closed loop: each client issues one operation, waits
// for the reply, thinks, and goes again.  Clients are bench-owned coroutines
// over the public svc API (Rt, File, ShardRouter, NameCache), so every
// operation's simulated latency is kept exactly; their inputs come from the
// wload generators (Forest, Scenario phases, HostStream, Zipf) seeded by
// --seed.  Schedule fuzz stays off: same-time events fire FIFO.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <numeric>

#include "fault/fault.hpp"
#include "naming/protocol.hpp"
#include "servers/file_server.hpp"
#include "servers/prefix_server.hpp"
#include "servers/shard_fabric.hpp"
#include "svc/name_cache.hpp"
#include "svc/runtime.hpp"
#include "vbench.hpp"
#include "wload/forest.hpp"
#include "wload/rng.hpp"
#include "wload/scenario.hpp"

namespace vbench {

namespace {

using namespace v;
using sim::kMillisecond;
using sim::SimDuration;
using sim::SimTime;
using Clock = std::chrono::steady_clock;

constexpr SimDuration kSecond = 1000 * kMillisecond;
constexpr std::size_t kShardWorkers = 4;
/// Slices of simulated time per repeat, each followed by a reference probe
/// (~1 ms): slices of tens of milliseconds track the host's speed changes
/// for a few percent of overhead.
constexpr SimDuration kRunSlices = 64;
constexpr std::string_view kWorkloadNames[] = {"day-steady", "day-churn",
                                               "resolve-chain",
                                               "cached-mutate"};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ms_since(ipc::Process self, SimTime t0) {
  return sim::to_ms(self.now() - t0);
}

enum class Verdict : std::uint8_t { kOk, kFailed, kWrong };

/// Window accounting shared by every client of a repeat.  An operation is
/// charged to the window it STARTED in; the measured window is the final
/// scenario phase.
struct Ledger {
  SimOutcome& out;
  SimTime lo = 0;
  SimTime hi = 0;

  [[nodiscard]] CallSamples* calls_for(SimTime started) {
    return started >= lo && started < hi ? &out.calls : nullptr;
  }

  void op(SimTime started, SimTime ended, Verdict verdict, bool mutate) {
    if (verdict == Verdict::kWrong) ++out.wrong;
    if (verdict == Verdict::kOk) ++out.ok_total;
    if (started < lo || started >= hi) return;
    ++out.attempted;
    if (verdict != Verdict::kOk) {
      ++out.failed;
    } else {
      ++out.ok;
      if (!mutate) out.op_ms.push_back(sim::to_ms(ended - started));
    }
  }
};

/// State every client of one repeat shares.  Clients fold their own
/// counters into the outcome when they finish.
struct World {
  explicit World(SimOutcome& out) : ledger{out} {}

  std::optional<wload::Forest> forest;
  wload::Scenario scenario;  ///< seed, pacing, read fraction, phases
  std::optional<wload::Zipf> zipf;
  std::size_t stride = 1;  ///< Zipf rank -> index scatter
  /// day-*: prefix indices in name order, the order the fabric partitions
  /// them in.  Scattering Zipf ranks over this order (not over generation
  /// order) gives every shard the same share of the load on every seed.
  std::vector<std::size_t> by_name;
  std::vector<std::string> chains;          ///< resolve-chain names
  std::vector<ipc::ProcessId> prefix_pids;  ///< per-client prefix server
  std::size_t cache_capacity = 0;
  ipc::GroupId fabric_group = 0;
  Ledger ledger;
  SimTime end = 0;
  std::vector<std::uint32_t> client_pids;
  std::size_t done = 0;

  /// Set the phase script; the last phase is the measured window.
  void set_phases(std::vector<wload::Phase> phases) {
    scenario.phases = std::move(phases);
    end = scenario.total_duration();
    ledger.hi = end;
    ledger.lo = end - scenario.phases.back().duration;
  }

  [[nodiscard]] SimDuration think(wload::Splitmix64& rng) const {
    const auto span =
        static_cast<std::uint64_t>(scenario.think_max - scenario.think_min);
    return scenario.think_min + static_cast<SimDuration>(rng.below(span));
  }

  /// Jittered start inside the warm-up: the fleet ramps in.
  [[nodiscard]] SimDuration jitter(wload::Splitmix64& rng) const {
    return static_cast<SimDuration>(rng.below(
        static_cast<std::uint64_t>(scenario.phases.front().duration)));
  }
};

/// Everything one repeat owns.  The Domain is reset explicitly (and timed)
/// before the rest, while every server and plan its fibers reference is
/// still alive.
struct Fixture {
  std::vector<std::unique_ptr<servers::FileServer>> fs;
  std::vector<servers::FileServer*> fs_ptrs;
  std::vector<ipc::ProcessId> fs_pids;
  std::vector<std::unique_ptr<servers::ContextPrefixServer>> prefix;
  std::unique_ptr<servers::ShardFabric> fabric;
  std::unique_ptr<fault::FaultPlan> plan;
  std::unique_ptr<ipc::Domain> dom;
};

using PrefixTable =
    std::vector<std::pair<std::string, servers::ContextPrefixServer::Entry>>;
using ClientBody = sim::Co<void> (*)(ipc::Process, std::size_t, World&);

/// The golden-ratio stride E14's production day scatters Zipf ranks with, so the
/// popular head does not follow sorted (and therefore shard) order.
std::size_t rank_stride(std::size_t n) {
  if (n <= 1) return 1;
  std::size_t stride = std::max<std::size_t>(1, (n * 618) / 1000);
  while (std::gcd(stride, n) != 1) ++stride;
  return stride;
}

void add_file_servers(Fixture& fx, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    const std::string label = "fs" + std::to_string(i);
    ipc::Host& host = fx.dom->add_host(label);
    fx.fs.push_back(std::make_unique<servers::FileServer>(
        label, servers::DiskModel::kMemory, /*register_service=*/false,
        naming::TeamConfig{.workers = 4, .queue_cap = 256}));
    servers::FileServer* srv = fx.fs.back().get();
    fx.fs_ptrs.push_back(srv);
    fx.fs_pids.push_back(
        host.spawn(label, [srv](ipc::Process p) { return srv->run(p); }));
  }
}

/// One workstation per client, each running its own context prefix server
/// over the forest's prefix table (paper section 6).
std::vector<ipc::Host*> add_workstations(Fixture& fx, World& w,
                                         const PrefixTable& table,
                                         std::size_t count) {
  std::vector<ipc::Host*> hosts;
  for (std::size_t i = 0; i < count; ++i) {
    ipc::Host& host = fx.dom->add_host("ws" + std::to_string(i));
    fx.prefix.push_back(std::make_unique<servers::ContextPrefixServer>(
        "user" + std::to_string(i), /*register_service=*/false));
    servers::ContextPrefixServer* srv = fx.prefix.back().get();
    for (const auto& [prefix, entry] : table) srv->define(prefix, entry);
    w.prefix_pids.push_back(
        host.spawn("prefix" + std::to_string(i),
                   [srv](ipc::Process p) { return srv->run(p); }));
    hosts.push_back(&host);
  }
  return hosts;
}

void spawn_clients(World& w, const std::vector<ipc::Host*>& hosts,
                   ClientBody body) {
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    const ipc::ProcessId pid = hosts[i]->spawn(
        "client" + std::to_string(i),
        [&w, i, body](ipc::Process self) { return body(self, i, w); });
    w.client_pids.push_back(pid.raw);
  }
  std::sort(w.client_pids.begin(), w.client_pids.end());
}

/// Cross-server link chains for resolve-chain.  Each name starts at a
/// forest prefix and crosses 1-4 links to other file servers; every link
/// component is 48-255 random letters, so each forwarded hop carries a name
/// longer than NameSpan's inline buffer.
std::vector<std::string> install_chains(const wload::Forest& forest,
                                        Fixture& fx, std::size_t count,
                                        std::uint64_t seed) {
  wload::Splitmix64 rng(wload::host_stream_seed(seed, ~std::uint64_t{0}));
  const std::size_t servers = fx.fs.size();
  std::vector<std::string> names;
  names.reserve(count);
  for (std::size_t c = 0; c < count; ++c) {
    const std::size_t p = rng.below(forest.prefix_count());
    std::size_t server = p % servers;  // where Forest::install put prefix p
    std::string dir = forest.prefix(p);
    std::string name = "[" + forest.prefix(p) + "]";
    // Exactly a quarter of the chains per link count: the latency mix, and
    // with it the median, must not depend on how the seed fell.
    const std::size_t links = 1 + c % 4;
    for (std::size_t k = 0; k < links; ++k) {
      std::string component(48 + rng.below(208), 'a');
      for (char& ch : component) {
        ch = static_cast<char>('a' + rng.below(26));
      }
      const std::size_t next = (server + 1 + rng.below(servers - 1)) % servers;
      const std::string next_dir =
          "c" + std::to_string(c) + "." + std::to_string(k);
      const naming::ContextId ctx = fx.fs[next]->mkdirs(next_dir);
      fx.fs[server]->put_link(dir + "/" + component, {fx.fs_pids[next], ctx});
      name += component + "/";
      server = next;
      dir = next_dir;
    }
    name += "leaf";
    fx.fs[server]->put_file(dir + "/leaf", wload::Forest::content_for(name));
    names.push_back(std::move(name));
  }
  return names;
}

// --- operations -------------------------------------------------------------

/// Verify an opened file against the content oracle (its size always, its
/// bytes when `read_back`), close it, and charge the ledger with the whole
/// operation, timed from `started` (before the open).
sim::Co<void> finish_read(ipc::Process self, World& w, const std::string& name,
                          bool read_back, SimTime started,
                          Result<svc::File> opened) {
  CallSamples* calls = w.ledger.calls_for(started);
  if (calls != nullptr) calls->open.push_back(ms_since(self, started));
  if (!opened.ok()) {
    w.ledger.op(started, self.now(), Verdict::kFailed, /*mutate=*/false);
    co_return;
  }
  svc::File file = opened.take();
  const std::string expect = wload::Forest::content_for(name);
  Verdict verdict =
      file.size() == expect.size() ? Verdict::kOk : Verdict::kWrong;
  if (read_back) {
    const SimTime t0 = self.now();
    auto bytes = co_await file.read_all();
    if (calls != nullptr) calls->read.push_back(ms_since(self, t0));
    if (!bytes.ok()) {
      if (verdict == Verdict::kOk) verdict = Verdict::kFailed;
    } else if (bytes.value().size() != expect.size() ||
               std::memcmp(bytes.value().data(), expect.data(),
                           expect.size()) != 0) {
      verdict = Verdict::kWrong;
    }
  }
  const SimTime t0 = self.now();
  const ReplyCode closed = co_await file.close();
  if (calls != nullptr) calls->close.push_back(ms_since(self, t0));
  if (closed != ReplyCode::kOk && verdict == Verdict::kOk) {
    verdict = Verdict::kFailed;
  }
  w.ledger.op(started, self.now(), verdict, /*mutate=*/false);
}

/// A gated create of `name` followed by its remove: both bump the
/// directory's generation, staling every other client's cached binding.
sim::Co<void> mutate_op(ipc::Process self, World& w, svc::Rt& rt,
                        const std::string& name) {
  const SimTime started = self.now();
  CallSamples* calls = w.ledger.calls_for(started);
  const ReplyCode created = co_await rt.create(name);
  const SimTime removing = self.now();
  const ReplyCode removed = co_await rt.remove(name);
  if (calls != nullptr) {
    calls->create.push_back(sim::to_ms(removing - started));
    calls->remove.push_back(ms_since(self, removing));
  }
  const bool ok = created == ReplyCode::kOk && removed == ReplyCode::kOk;
  w.ledger.op(started, self.now(), ok ? Verdict::kOk : Verdict::kFailed,
              /*mutate=*/true);
}

// --- clients ----------------------------------------------------------------

sim::Co<void> day_client(ipc::Process self, std::size_t index, World& w) {
  wload::HostStream rng(w.scenario.seed, index);
  svc::Rt rt(self, svc::NameEnv{});
  svc::ShardRouter router(rt, {.fabric_group = w.fabric_group});
  const wload::Forest& forest = *w.forest;
  co_await self.delay(w.jitter(rng));
  while (self.now() < w.end) {
    const std::size_t prefix =
        w.by_name[(w.zipf->sample(rng) * w.stride) % forest.prefix_count()];
    const std::string& name = forest.name(forest.file_under(prefix, rng));
    const bool read_back = rng.chance(w.scenario.read_fraction);
    const SimTime started = self.now();
    auto routed = co_await router.open(name, naming::wire::kOpenRead);
    Result<svc::File> opened =
        routed.ok() ? Result<svc::File>(std::move(routed.value().file))
                    : Result<svc::File>(routed.code());
    co_await finish_read(self, w, name, read_back, started,
                         std::move(opened));
    co_await self.delay(w.think(rng));
  }
  const svc::ShardRouter::Stats& rs = router.stats();
  svc::ShardRouter::Stats& total = w.ledger.out.router;
  total.opens += rs.opens;
  total.map_fetches += rs.map_fetches;
  total.stale_retries += rs.stale_retries;
  total.noreply_retries += rs.noreply_retries;
  total.busy_retries += rs.busy_retries;
  total.failures += rs.failures;
  ++w.done;
}

/// resolve-chain: 3/8 of opens name forest files (prefix hop + file
/// server), 5/8 name link chains.  The split keeps the median inside one
/// population instead of on the gap between two.
sim::Co<void> chain_client(ipc::Process self, std::size_t index, World& w) {
  wload::HostStream rng(w.scenario.seed, index);
  svc::Rt rt(self, svc::NameEnv{.prefix_server = w.prefix_pids[index], .current = {}});
  const wload::Forest& forest = *w.forest;
  co_await self.delay(w.jitter(rng));
  while (self.now() < w.end) {
    const bool chained = rng.below(8) >= 3;
    const std::string& name =
        chained ? w.chains[rng.below(w.chains.size())]
                : forest.name(rng.below(forest.file_count()));
    const bool read_back = rng.chance(w.scenario.read_fraction);
    const SimTime started = self.now();
    auto opened = co_await rt.open(name, naming::wire::kOpenRead);
    co_await finish_read(self, w, name, read_back, started,
                         std::move(opened));
    co_await self.delay(w.think(rng));
  }
  ++w.done;
}

/// cached-mutate: Zipf-drawn directories through a per-client validated
/// cache; one op in ten creates and removes a client-unique file instead.
sim::Co<void> mutate_client(ipc::Process self, std::size_t index, World& w) {
  constexpr double kMutateFraction = 0.1;
  wload::HostStream rng(w.scenario.seed, index);
  svc::Rt rt(self, svc::NameEnv{.prefix_server = w.prefix_pids[index], .current = {}});
  svc::NameCache cache(w.cache_capacity);
  rt.set_cache(&cache);
  const wload::Forest& forest = *w.forest;
  const std::size_t per_dir = forest.spec().files_per_dir;
  const std::size_t dirs = forest.file_count() / per_dir;
  co_await self.delay(w.jitter(rng));
  while (self.now() < w.end) {
    const std::size_t dir = (w.zipf->sample(rng) * w.stride) % dirs;
    if (rng.chance(kMutateFraction)) {
      const std::string& sibling = forest.name(dir * per_dir);
      const std::string name = sibling.substr(0, sibling.rfind('/') + 1) +
                               "m" + std::to_string(index);
      co_await mutate_op(self, w, rt, name);
    } else {
      const std::string& name = forest.name(dir * per_dir + rng.below(per_dir));
      const SimTime started = self.now();
      auto opened = co_await rt.open(name, naming::wire::kOpenRead);
      co_await finish_read(self, w, name, /*read_back=*/true, started,
                           std::move(opened));
    }
    co_await self.delay(w.think(rng));
  }
  rt.set_cache(nullptr);
  SimOutcome& out = w.ledger.out;
  out.cache_hits += cache.hits();
  out.cache_misses += cache.misses();
  out.cache_stale += cache.stale();
  out.cache_fallbacks += cache.fallbacks();
  ++w.done;
}

// --- workload set-up --------------------------------------------------------

/// Records each completed handoff and handback duration once.  Called from
/// every churn callback and after the run; cycles never overlap, so each
/// completion is seen exactly once.
struct ChurnProbe {
  const servers::ShardFabric* fabric;
  SimOutcome* out;
  void operator()() const {
    const servers::ShardFabric::ChurnStats& c = fabric->churn_stats();
    if (c.handoffs > out->handoffs) {
      out->handoffs = c.handoffs;
      out->handoff_ms_sum += c.last_handoff_ms;
    }
    if (c.handbacks > out->handbacks) {
      out->handbacks = c.handbacks;
      out->handback_ms_sum += c.last_handback_ms;
    }
  }
};

/// Shards day-churn crashes, one per cycle: never shard 0 (it holds the
/// Zipf head), never the same shard twice.
constexpr std::size_t kChurnVictims[] = {2, 5, 7};

void build_day(const RunConfig& cfg, Fixture& fx, World& w, HostCost& host) {
  const bool churn = cfg.workload == Workload::kDayChurn;
  wload::ForestSpec spec;
  spec.seed = cfg.seed;
  std::size_t hosts = 0;
  SimDuration cycle = 0;
  std::vector<wload::Phase> phases;
  if (cfg.smoke) {
    spec.prefixes = 32;
    spec.dirs_per_prefix = 2;
    spec.files_per_dir = 4;
    hosts = 24;
    cycle = kSecond;
    phases = {{.kind = wload::PhaseKind::kWarmup, .duration = kSecond / 5},
              {.kind = wload::PhaseKind::kSteady, .duration = kSecond}};
  } else {
    // The E14 forest.  Shard 0 takes 23% of the Zipf draws and runs near
    // its ceiling; the other seven take 9-15% each.
    spec.prefixes = 256;
    spec.dirs_per_prefix = 4;
    spec.files_per_dir = 8;
    // 144 churn hosts keep the median open queued at a shard, so it is a
    // continuous quantity rather than the fixed cost of an idle path.
    hosts = churn ? 144 : 256;
    // Each restart costs a ~3 s stale storm (the handback's generation
    // bumps).  With 8 s cycles that storm is 40% of the window and op_p99
    // swings by half from seed to seed; 32 s cycles leave the fleet time
    // to recover between membership changes, as in production.
    cycle = 32 * kSecond;
    phases = {{.kind = wload::PhaseKind::kWarmup, .duration = 2 * kSecond},
              {.kind = wload::PhaseKind::kSteady,
               .duration = (churn ? 4 : 40) * kSecond}};
  }
  if (churn) {
    phases.push_back({.kind = wload::PhaseKind::kChurn, .duration = 3 * cycle});
  }
  w.scenario.seed = cfg.seed;
  w.scenario.think_min = 8 * kMillisecond;
  w.scenario.think_max = 24 * kMillisecond;
  // One op in four also reads and verifies the bytes.  At E14's 0.5 the
  // median sits on the step between open-only and open+read ops and jumps
  // between the two when queueing shifts a few ops; at 0.25 it lies inside
  // the open-only population.
  w.scenario.read_fraction = 0.25;
  w.set_phases(std::move(phases));

  auto t0 = Clock::now();
  w.forest.emplace(spec);
  w.zipf.emplace(w.forest->prefix_count(), w.scenario.zipf_alpha);
  w.stride = rank_stride(w.forest->prefix_count());
  w.by_name.resize(w.forest->prefix_count());
  std::iota(w.by_name.begin(), w.by_name.end(), std::size_t{0});
  std::sort(w.by_name.begin(), w.by_name.end(),
            [&f = *w.forest](std::size_t a, std::size_t b) {
              return f.prefix(a) < f.prefix(b);
            });
  host.forest_s = seconds_since(t0);

  t0 = Clock::now();
  // Storage is never the bottleneck: 8 teams of 4 clear ~10x the demand.
  add_file_servers(fx, 8);
  fx.fabric = std::make_unique<servers::ShardFabric>(
      *fx.dom,
      servers::ShardFabric::Config{
          .shards = 8, .team = {.workers = kShardWorkers, .queue_cap = 256}});
  fx.fabric->install(w.forest->install(fx.fs_ptrs, fx.fs_pids));
  w.fabric_group = fx.fabric->group();
  // Installed on churn-free days too: a map fetch can outlive its group
  // timeout behind a saturated shard, and the late reply must be dropped
  // by the transaction layer rather than complete a client's next send.
  fx.plan = std::make_unique<fault::FaultPlan>(0xE14);
  if (churn) {
    const ChurnProbe probe{fx.fabric.get(), &w.ledger.out};
    servers::ShardFabric& fabric = *fx.fabric;
    for (std::size_t k = 0; k < std::size(kChurnVictims); ++k) {
      const std::size_t victim = kChurnVictims[k];
      const SimTime start = w.ledger.lo + static_cast<SimTime>(k) * cycle;
      const auto id = fabric.host(victim).id();
      fx.plan->crash_at(start + cycle / 8, id, [&fabric, victim, probe] {
        probe();
        fabric.on_crash(victim);
      });
      fx.plan->restart_at(start + (cycle * 5) / 8, id,
                          [&fabric, victim, probe] {
                            probe();
                            fabric.on_restart(victim);
                          });
    }
  }
  fx.dom->install_faults(*fx.plan);
  host.install_s = seconds_since(t0);

  t0 = Clock::now();
  std::vector<ipc::Host*> client_hosts;
  for (std::size_t i = 0; i < hosts; ++i) {
    client_hosts.push_back(&fx.dom->add_host("wl" + std::to_string(i)));
  }
  spawn_clients(w, client_hosts, day_client);
  host.spawn_s = seconds_since(t0);
}

/// Shared shape of resolve-chain and cached-mutate: per-client prefix
/// servers in front of a file-server pool, paced so no server queue
/// builds.
void build_workstations(const RunConfig& cfg, Fixture& fx, World& w,
                        HostCost& host, wload::ForestSpec spec,
                        std::size_t file_servers, std::size_t chains,
                        ClientBody body) {
  const std::size_t clients = cfg.smoke ? 8 : 32;
  spec.seed = cfg.seed;
  w.scenario.seed = cfg.seed;
  w.scenario.think_min = 10 * kMillisecond;
  w.scenario.think_max = 30 * kMillisecond;
  w.set_phases(
      {{.kind = wload::PhaseKind::kWarmup,
        .duration = cfg.smoke ? kSecond / 5 : kSecond},
       {.kind = wload::PhaseKind::kSteady,
        .duration = cfg.smoke ? 2 * kSecond : 120 * kSecond}});

  auto t0 = Clock::now();
  w.forest.emplace(spec);
  const std::size_t dirs = spec.prefixes * spec.dirs_per_prefix;
  w.zipf.emplace(dirs, w.scenario.zipf_alpha);
  w.stride = rank_stride(dirs);
  host.forest_s = seconds_since(t0);

  t0 = Clock::now();
  add_file_servers(fx, file_servers);
  const PrefixTable table = w.forest->install(fx.fs_ptrs, fx.fs_pids);
  if (chains != 0) {
    w.chains = install_chains(*w.forest, fx, chains, cfg.seed);
  }
  const std::vector<ipc::Host*> stations =
      add_workstations(fx, w, table, clients);
  host.install_s = seconds_since(t0);

  t0 = Clock::now();
  spawn_clients(w, stations, body);
  host.spawn_s = seconds_since(t0);
}

void build_chain(const RunConfig& cfg, Fixture& fx, World& w, HostCost& host) {
  wload::ForestSpec spec;
  spec.prefixes = cfg.smoke ? 32 : 256;
  spec.dirs_per_prefix = cfg.smoke ? 2 : 4;
  spec.files_per_dir = cfg.smoke ? 4 : 8;
  build_workstations(cfg, fx, w, host, spec, 8, cfg.smoke ? 64 : 2048,
                     chain_client);
}

void build_mutate(const RunConfig& cfg, Fixture& fx, World& w,
                  HostCost& host) {
  // 256 directories on 4 file servers: four times one cache's capacity.
  wload::ForestSpec spec;
  spec.prefixes = cfg.smoke ? 16 : 64;
  spec.dirs_per_prefix = 4;
  spec.files_per_dir = 8;
  w.cache_capacity = spec.prefixes * spec.dirs_per_prefix / 4;
  build_workstations(cfg, fx, w, host, spec, 4, 0, mutate_client);
}

void collect(const Fixture& fx, const World& w, SimOutcome& out) {
  ipc::Domain& dom = *fx.dom;
  out.window_s = sim::to_ms(w.ledger.hi - w.ledger.lo) / 1000.0;
  out.clients = w.client_pids.size();
  out.clients_done = w.done;
  out.process_failures = dom.process_failures();
  out.first_failure = dom.first_failure();
  const sim::EventLoop& loop = dom.loop();
  out.events = loop.events_executed();
  out.actions_heap = loop.stats().actions_heap;
  out.wheel_cascades = loop.stats().wheel_cascades;
  out.ipc = dom.stats();
  if (fx.fabric) out.fabric_sheds = fx.fabric->shed_count();
  if (fx.plan) {
    const fault::FaultStats& f = fx.plan->stats();
    out.crashes = f.crashes;
    out.restarts = f.restarts;
    out.retransmits = f.retransmits;
    out.stale_replies_dropped = f.stale_replies_dropped;
  }
  if (fx.fabric) ChurnProbe{fx.fabric.get(), &out}();
}

/// Domain construction -> every server and client spawned: the set-up a
/// repeat pays before dom.run().
void build(const RunConfig& cfg, Fixture& fx, World& w, HostCost& host) {
  RefStopwatch clock;
  fx.dom = std::make_unique<ipc::Domain>();
  if (cfg.trace_rate > 0) {
    fx.dom->tracer().sampler().set_rate(cfg.trace_rate);
    fx.dom->tracer().enable();
  }
  switch (cfg.workload) {
    case Workload::kDaySteady:
    case Workload::kDayChurn:
      build_day(cfg, fx, w, host);
      break;
    case Workload::kResolveChain:
      build_chain(cfg, fx, w, host);
      break;
    case Workload::kCachedMutate:
      build_mutate(cfg, fx, w, host);
      break;
  }
  const Lap setup = clock.lap();
  // The build_* steps are timed in wall seconds; the probes around the
  // whole set-up convert them.
  const double scale = setup.ref_s / setup.wall_s;
  host.setup_s = setup.ref_s;
  host.forest_s *= scale;
  host.install_s *= scale;
  host.spawn_s *= scale;
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (std::size_t i = 0; i < std::size(kWorkloadNames); ++i) {
    if (kWorkloadNames[i] == name) return static_cast<Workload>(i);
  }
  return std::nullopt;
}

std::string_view name_of(Workload w) {
  return kWorkloadNames[static_cast<std::size_t>(w)];
}

Repeat run_repeat(const RunConfig& cfg, const std::string& trace_path,
                  bool& wrote_trace) {
  Repeat rep;
  wrote_trace = true;
  Fixture fx;
  World w(rep.sim);
  build(cfg, fx, w, rep.host);

  // dom.run() in slices of simulated time with the reference probe between
  // them.  The slices execute the same events in the same order as one
  // run_until_idle(); the fingerprint check in vbench.cpp holds them to it.
  sim::EventLoop& loop = fx.dom->loop();
  const SimDuration slice = std::max<SimDuration>(1, w.end / kRunSlices);
  RefStopwatch clock;
  std::vector<double> rates = {clock.probe_rate()};
  while (loop.pending() > 0) {
    loop.run_until(loop.now() + slice);
    const Lap lap = clock.lap();
    rep.host.run_s += lap.ref_s;
    rep.host.run_wall_s += lap.wall_s;
    rates.push_back(clock.probe_rate());
  }
  std::nth_element(rates.begin(), rates.begin() + rates.size() / 2,
                   rates.end());
  rep.host.probe_rate = rates[rates.size() / 2];
  collect(fx, w, rep.sim);

  if (cfg.trace_rate > 0) {
    TraceScope scope;
    scope.client_pids = w.client_pids;
    scope.window_lo = w.ledger.lo;
    scope.window_hi = w.ledger.hi;
    // The share of head decisions that kept a transaction, which the
    // configured rate only approximates.
    const obs::SamplePolicy& sampler = fx.dom->tracer().sampler();
    const auto kept = static_cast<double>(sampler.sampled());
    const auto decided = kept + static_cast<double>(sampler.skipped());
    scope.rate = decided == 0 ? cfg.trace_rate : kept / decided;
    scope.ops = rep.sim.ok_total;
    scope.shard_workers = kShardWorkers;
    rep.layers = analyze_trace(fx.dom->tracer(), scope);
    if (!trace_path.empty()) {
      wrote_trace = fx.dom->tracer().write_chrome_json(trace_path);
    }
  }

  clock.lap();  // restart the stopwatch after the trace analysis
  fx.dom.reset();
  rep.host.teardown_s = clock.lap().ref_s;
  return rep;
}

double setup_seconds(const RunConfig& cfg) {
  SimOutcome out;
  Fixture fx;
  World w(out);
  HostCost host;
  build(cfg, fx, w, host);
  fx.dom.reset();
  return host.setup_s;
}

Calibration calibrate() {
  ipc::Domain dom;
  ipc::Host& ws = dom.add_host("ws1");
  ipc::Host& fs = dom.add_host("fs1");
  servers::FileServer remote("remote", servers::DiskModel::kMemory, false);
  remote.put_file("f.dat", "remote bytes");
  servers::ContextPrefixServer prefixes("user", /*register_service=*/false);
  const ipc::ProcessId remote_pid =
      fs.spawn("remote-fs", [&](ipc::Process p) { return remote.run(p); });
  prefixes.define("r", {.target = {remote_pid, naming::kDefaultContext}});
  const ipc::ProcessId prefix_pid =
      ws.spawn("prefix-server", [&](ipc::Process p) { return prefixes.run(p); });

  // The paper's number is the Open alone; each close is outside the timing.
  Calibration c;
  ws.spawn("client", [&](ipc::Process self) -> sim::Co<void> {
    svc::Rt rt(self, {prefix_pid, {remote_pid, naming::kDefaultContext}});
    constexpr int kOpens = 50;
    for (const bool via_prefix : {false, true}) {
      SimDuration total = 0;
      for (int i = 0; i < kOpens; ++i) {
        const SimTime t0 = self.now();
        auto opened = co_await rt.open(via_prefix ? "[r]f.dat" : "f.dat",
                                       naming::wire::kOpenRead);
        total += self.now() - t0;
        if (!opened.ok()) co_return;  // leaves the row at 0: out of band
        (void)co_await opened.value().close();
      }
      (via_prefix ? c.prefix_remote_ms : c.direct_remote_ms) =
          sim::to_ms(total) / kOpens;
    }
  });
  dom.run();
  return c;
}

double floor_events_per_s(std::uint64_t events) {
  // The timer-churn shape of bench_engine: a fixed population of
  // self-rescheduling timers whose delays mix immediate wakes,
  // sub-millisecond hops and long timeouts.  No Domain, no fibers.
  struct Churn {
    sim::EventLoop loop;
    std::uint64_t budget = 0;
    wload::Splitmix64 rng{0x1984'0601ULL};
    void arm() {
      if (budget == 0) return;
      --budget;
      const std::uint64_t r = rng.next();
      SimDuration delay = 0;
      if ((r & 3) == 1 || (r & 3) == 2) {
        delay = static_cast<SimDuration>((r >> 2) % (2 * kMillisecond));
      } else if ((r & 3) == 3) {
        delay = static_cast<SimDuration>((r >> 2) % (100 * kMillisecond));
      }
      loop.schedule_after(delay, [this] { arm(); });
    }
  };
  Churn churn;
  churn.budget = events;
  const auto t0 = Clock::now();
  for (int i = 0; i < (1 << 14); ++i) churn.arm();
  churn.loop.run_until_idle();
  const double wall = seconds_since(t0);
  return static_cast<double>(churn.loop.events_executed()) / wall;
}

}  // namespace vbench
