// E11 (extension): V-fault recovery — what reliability costs on a lossy
// network and how fast a client rebinds after a server crash (DESIGN.md 4h,
// PROTOCOL.md 12).
//
// The paper prices the happy path (E1-E6) on a network that never loses a
// packet and servers that never die.  This bench prices the other half of
// the story: kernel retransmission masking packet loss underneath an open,
// the worst-case kNoReply detection latency when a server link is dead, and
// the restart -> first-correct-reply recovery latency through multicast
// rebinding (direct names and prefix-routed names), swept over 16 fault
// seeds.  The oracle is the chaos matrix's: a recovering open may cost
// retries, but it must never return wrong bytes.
#include <algorithm>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "fault/fault.hpp"
#include "naming/protocol.hpp"
#include "svc/name_cache.hpp"

using namespace v;
using naming::wire::kOpenRead;
using sim::Co;
using sim::kMillisecond;
using sim::to_ms;

namespace {

/// Service group every file-server incarnation joins (mirrors the test
/// fixture): recovery probes multicast here reach whichever incarnations
/// are alive, under whatever pids they currently hold.
constexpr ipc::GroupId kStorageGroup = 0xFA01;

constexpr std::string_view kDirectName = "usr/mann/naming.mss";
constexpr std::string_view kDirectBytes = "Distributed name interpretation.";
constexpr std::string_view kPrefixedName = "[home]paper.mss";
constexpr std::string_view kPrefixedBytes = "ICDCS 1984.";

/// The standard two-file-server installation (tests/v_fixture.hpp without
/// the gtest plumbing): alpha on fs1 with mann's home directory, beta on
/// fs2, a per-user prefix server on ws1, every incarnation in the storage
/// group so multicast rebinding has someone to ask.
struct Install {
  ipc::Domain dom;
  ipc::Host& ws1;
  ipc::Host& fs1;
  ipc::Host& fs2;
  servers::FileServer alpha;
  servers::FileServer beta;
  servers::ContextPrefixServer prefixes;
  ipc::ProcessId alpha_pid;
  ipc::ProcessId beta_pid;
  ipc::ProcessId prefix_pid;

  Install()
      : ws1(dom.add_host("ws1")),
        fs1(dom.add_host("fs1")),
        fs2(dom.add_host("fs2")),
        alpha("alpha"),
        beta("beta", servers::DiskModel::kMemory, false),
        prefixes("mann") {
    alpha.put_file(std::string(kDirectName), std::string(kDirectBytes));
    alpha.put_file("usr/mann/paper.mss", std::string(kPrefixedBytes));
    alpha.map_well_known(naming::kHomeContext, "usr/mann");
    beta.put_file("pub/readme", "public files live here");
    alpha.set_service_group(kStorageGroup);
    beta.set_service_group(kStorageGroup);
    alpha_pid = fs1.spawn("alpha-fs",
                          [this](ipc::Process p) { return alpha.run(p); });
    beta_pid = fs2.spawn("beta-fs",
                         [this](ipc::Process p) { return beta.run(p); });
    prefixes.define("home",
                    {.target = {alpha_pid, alpha.context_of("usr/mann")}});
    prefixes.set_rebind_group(kStorageGroup);
    prefix_pid = ws1.spawn("prefix-server",
                           [this](ipc::Process p) { return prefixes.run(p); });
  }

  /// Restart alpha's host and re-spawn the server as a NEW incarnation
  /// (fresh pid, fresh generation floor; rejoins the storage group).
  void respawn_alpha() {
    if (!fs1.alive()) fs1.restart();
    alpha_pid = fs1.spawn("alpha-fs",
                          [this](ipc::Process p) { return alpha.run(p); });
  }
};

/// Open `name` until it succeeds AND carries `expect`, up to `attempts`
/// tries `gap` apart.  Every successful open's bytes are checked; wrong
/// bytes count into `*wrong` (the zero-wrong-answers oracle).  `*open_ms`,
/// when non-null, accumulates ONLY the time spent inside rt.open() —
/// verification reads and retry gaps stay untimed so loss rows price the
/// same thing E4 prices (the open itself, retransmissions included).
Co<bool> open_until_correct(ipc::Process self, svc::Rt& rt,
                            std::string_view name, std::string_view expect,
                            int attempts, sim::SimDuration gap, int* wrong,
                            sim::SimDuration* open_ms) {
  for (int i = 0; i < attempts; ++i) {
    if (i > 0) co_await self.delay(gap);
    const auto t0 = self.now();
    auto opened = co_await rt.open(name, kOpenRead);
    if (open_ms != nullptr) *open_ms += self.now() - t0;
    if (!opened.ok()) continue;  // clean failure: retry after the gap
    svc::File f = opened.take();
    auto bytes = co_await f.read_all();
    if (!bytes.ok()) {
      (void)co_await f.close();
      continue;
    }
    if (std::string(reinterpret_cast<const char*>(bytes.value().data()),
                    bytes.value().size()) != expect) {
      ++*wrong;
    }
    (void)co_await f.close();
    co_return true;
  }
  co_return false;
}

struct LossCell {
  double mean_open_ms = -1;  ///< mean time-to-successful-open
  int wrong = 0;
  int gave_up = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t drops = 0;
};

/// 32 opens of the direct remote name under symmetric loss; the kernel's
/// retransmission layer (plus one Rt retry + rebind, the standard client
/// recovery policy) must keep every one correct.
LossCell measure_under_loss(double loss, std::uint64_t seed) {
  constexpr int kOpens = 32;
  Install fx;
  fault::FaultPlan plan(seed);
  const bool faulted = loss > 0;
  if (faulted) {
    fault::LinkFaults link;
    link.drop = loss;
    link.duplicate = loss / 2;
    link.reorder = loss / 2;
    plan.set_default_link(link);
    fx.dom.install_faults(plan);
  }

  LossCell cell;
  bench::run_client(fx.dom, fx.ws1, [&](ipc::Process self) -> Co<void> {
    svc::Rt rt(self, {ipc::ProcessId::invalid(),
                      {fx.alpha_pid, naming::kDefaultContext}});
    svc::RecoveryPolicy policy;
    policy.noreply_retries = 1;
    policy.rebind_group = kStorageGroup;
    rt.set_recovery(policy);
    sim::SimDuration total = 0;
    int counted = 0;
    for (int i = 0; i < kOpens; ++i) {
      sim::SimDuration spent = 0;
      const bool served = co_await open_until_correct(
          self, rt, kDirectName, kDirectBytes, 8, 5 * kMillisecond,
          &cell.wrong, &spent);
      if (!served) {
        ++cell.gave_up;
        continue;
      }
      total += spent;
      ++counted;
    }
    if (counted > 0) cell.mean_open_ms = to_ms(total) / counted;
  });
  cell.retransmits = plan.stats().retransmits;
  cell.drops = plan.stats().drops;
  return cell;
}

/// Worst-case detection latency: the client->server link drops everything,
/// so one send burns the whole retry budget before kNoReply surfaces.
double measure_noreply(std::uint64_t seed, fault::FaultStats* out) {
  Install fx;
  fault::FaultPlan plan(seed);
  fault::LinkFaults dead;
  dead.drop = 1.0;
  plan.set_link(fx.ws1.id(), fx.fs1.id(), dead);
  fx.dom.install_faults(plan);

  double ms = -1;
  bench::run_client(fx.dom, fx.ws1, [&](ipc::Process self) -> Co<void> {
    svc::Rt rt(self, {ipc::ProcessId::invalid(),
                      {fx.alpha_pid, naming::kDefaultContext}});
    const auto t0 = self.now();
    auto opened = co_await rt.open(kDirectName, kOpenRead);
    if (!opened.ok()) ms = to_ms(self.now() - t0);
  });
  *out = plan.stats();
  return ms;
}

struct RecoveryCell {
  double direct_ms = -1;    ///< restart -> first correct direct open
  double prefixed_ms = -1;  ///< then: first correct [home] open
  int wrong = 0;
  bool recovered = false;
};

/// Crash alpha at 40 ms, restart it at 90 ms as a fresh incarnation, and
/// measure how long a retrying client (cache + standard recovery policy,
/// 5% background loss) takes from the restart instant to its first correct
/// reply — once for the direct name (stale context pair, repaired by
/// multicast rebinding) and once for the prefix-routed name (stale prefix
/// table entry, repaired by the prefix server's own group probe).
RecoveryCell measure_recovery(std::uint64_t seed) {
  constexpr sim::SimTime kCrashAt = 40 * kMillisecond;
  constexpr sim::SimTime kRestartAt = 90 * kMillisecond;
  Install fx;
  fault::FaultPlan plan(seed);
  fault::LinkFaults link;
  link.drop = 0.05;
  link.duplicate = 0.025;
  link.reorder = 0.025;
  plan.set_default_link(link);
  plan.crash_at(kCrashAt, fx.fs1.id());
  plan.restart_at(kRestartAt, fx.fs1.id(), [&fx] { fx.respawn_alpha(); });
  fx.dom.install_faults(plan);

  RecoveryCell cell;
  bench::run_client(fx.dom, fx.ws1, [&](ipc::Process self) -> Co<void> {
    auto rt = co_await svc::Rt::attach(
        self, naming::ContextPair{fx.alpha_pid, naming::kDefaultContext});
    svc::NameCache cache;
    rt.set_cache(&cache);
    svc::RecoveryPolicy policy;
    policy.noreply_retries = 1;
    policy.rebind_group = kStorageGroup;
    rt.set_recovery(policy);

    // Warm both paths against the original incarnation, so the client
    // holds exactly the stale state (context pair, cache entries, prefix
    // binding) a real workstation would hold when the server dies.
    (void)co_await open_until_correct(self, rt, kDirectName, kDirectBytes, 4,
                                      5 * kMillisecond, &cell.wrong, nullptr);
    (void)co_await open_until_correct(self, rt, kPrefixedName, kPrefixedBytes,
                                      4, 5 * kMillisecond, &cell.wrong,
                                      nullptr);
    if (self.now() < kRestartAt) co_await self.delay(kRestartAt - self.now());

    const auto t0 = self.now();
    const bool direct_ok = co_await open_until_correct(
        self, rt, kDirectName, kDirectBytes, 200, 5 * kMillisecond,
        &cell.wrong, nullptr);
    if (direct_ok) cell.direct_ms = to_ms(self.now() - t0);

    const auto t1 = self.now();
    const bool prefixed_ok = co_await open_until_correct(
        self, rt, kPrefixedName, kPrefixedBytes, 200, 5 * kMillisecond,
        &cell.wrong, nullptr);
    if (prefixed_ok) cell.prefixed_ms = to_ms(self.now() - t1);

    cell.recovered = direct_ok && prefixed_ok;
    rt.set_cache(nullptr);
  });
  return cell;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? -1 : v[v.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::json_path_from_args(argc, argv);
  const int repeats = bench::repeat_from_args(argc, argv);
  int rc = 0;

  bench::headline("E11-fault",
                  "reliable transactions on a lossy network (V-fault)");
  bench::run_info(0, "SUN 3 Mbit (default)");
  {
    const ipc::Domain probe;
    bench::obs_info(probe);
  }

  constexpr std::uint64_t kSeed = 0xFA07B000ULL;
  int wrong = 0, gave_up = 0;

  const LossCell clean = measure_under_loss(0.0, kSeed);
  wrong += clean.wrong;
  gave_up += clean.gave_up;
  bench::row("direct remote open, clean network", clean.mean_open_ms, 3.70);
  for (const double loss : {0.05, 0.20}) {
    const LossCell cell = measure_under_loss(loss, kSeed);
    wrong += cell.wrong;
    gave_up += cell.gave_up;
    bench::row("open at " + std::to_string(static_cast<int>(loss * 100)) +
                   "% loss (" + std::to_string(cell.retransmits) +
                   " retransmits, " + std::to_string(cell.drops) + " drops)",
               cell.mean_open_ms);
  }
  fault::FaultStats dead_stats;
  const double noreply_ms = measure_noreply(kSeed, &dead_stats);
  bench::row("dead link: kNoReply after " +
                 std::to_string(dead_stats.retransmits) + " retransmits",
             noreply_ms);
  bench::note("");
  bench::note("retry policy: 10 ms initial timeout, x2 backoff, 80 ms cap,");
  bench::note("budget 6 (one cycle = 390 ms); the Rt's default recovery");
  bench::note("policy retries the open once, so a dead link surfaces after");
  bench::note("two full cycles.");
  if (wrong != 0 || gave_up != 0) {
    bench::note("FAILURE: " + std::to_string(wrong) + " wrong reply(ies), " +
                std::to_string(gave_up) + " open(s) never served");
    rc = 1;
  } else {
    bench::note("every open eventually returned correct bytes.");
  }

  bench::headline("E11-fault-recovery",
                  "crash -> restart -> rebind latency (16 fault seeds)");
  constexpr int kSeeds = 16;
  std::vector<double> direct, prefixed;
  int rec_wrong = 0, not_recovered = 0;
  const double host_ms = bench::median_host_ms(repeats, [&] {
    direct.clear();
    prefixed.clear();
    rec_wrong = 0;
    not_recovered = 0;
    for (int i = 0; i < kSeeds; ++i) {
      const RecoveryCell cell = measure_recovery(kSeed + 0x100 + i);
      rec_wrong += cell.wrong;
      if (!cell.recovered) {
        ++not_recovered;
        continue;
      }
      direct.push_back(cell.direct_ms);
      prefixed.push_back(cell.prefixed_ms);
    }
  });
  const double direct_max =
      direct.empty() ? -1 : *std::max_element(direct.begin(), direct.end());
  const double prefixed_max =
      prefixed.empty() ? -1
                       : *std::max_element(prefixed.begin(), prefixed.end());
  bench::row("direct name, restart -> correct reply (median)",
             median(direct));
  bench::row("direct name, restart -> correct reply (max)", direct_max);
  bench::row("[prefix] name via prefix server (median)", median(prefixed));
  bench::row("[prefix] name via prefix server (max)", prefixed_max);
  bench::note("");
  bench::note("5% loss throughout; crash at 40 ms, restart at 90 ms as a");
  bench::note("fresh incarnation; client retries every 5 ms with the");
  bench::note("standard recovery policy (1 retry + multicast rebind).");
  if (not_recovered != 0 || rec_wrong != 0) {
    bench::note("FAILURE: " + std::to_string(not_recovered) +
                " seed(s) never recovered, " + std::to_string(rec_wrong) +
                " wrong reply(ies)");
    rc = 1;
  } else if (direct_max > 4000.0 || prefixed_max > 4000.0) {
    bench::note("FAILURE: recovery latency exceeds the 4 s bound");
    rc = 1;
  } else {
    bench::note("all " + std::to_string(kSeeds) +
                " seeds recovered within bound, zero wrong replies.");
  }
  std::printf("  host wall-clock per sweep: %.1f ms (median of %d)\n",
              host_ms, repeats);

  return bench::finish(json_path, rc);
}
