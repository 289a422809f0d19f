// The V-fault chaos matrix (DESIGN.md 4h): loss rate x crash schedule x
// seed.  Every cell runs the standard VFixture installation under a
// seed-driven FaultPlan while a client works through a fixed naming
// workload with full recovery enabled (kernel retransmission underneath,
// Rt retries + multicast rebinding + validated cache on top).
//
// The oracle is the same as the cached-open matrix, hardened for chaos:
// an open may cost retries and may fail CLEANLY while its server is down,
// but it must never return wrong bytes and the client must never park
// forever.  Where the scenario guarantees an eventual server (no crash, or
// crash followed by restart), the open must eventually succeed, and for
// the crash+restart schedule the time from restart to the first successful
// open is the recovery latency — asserted bounded and reported by
// bench_fault_recovery.
//
// Reproduce one failing cell standalone:
//   V_FUZZ_SEED=0xFA070003 build/tests/test_fault_matrix
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "naming/protocol.hpp"
#include "svc/name_cache.hpp"
#include "v_fixture.hpp"

namespace v {
namespace {

using naming::wire::kOpenRead;
using sim::Co;
using sim::kMillisecond;
using sim::kSecond;
using test::kStorageGroup;
using test::VFixture;

constexpr std::uint64_t kSeedBase = 0xFA070000ULL;

/// Same sweep contract as the other matrices: V_FUZZ_SEED pins a single
/// seed (repro mode), V_FUZZ_SEEDS widens/narrows the count (default 16).
std::vector<std::uint64_t> sweep_seeds() {
  if (const char* pin = std::getenv("V_FUZZ_SEED")) {
    return {std::strtoull(pin, nullptr, 0)};
  }
  std::size_t count = 16;
  if (const char* n = std::getenv("V_FUZZ_SEEDS")) {
    count = std::strtoull(n, nullptr, 0);
    if (count == 0) count = 1;
  }
  std::vector<std::uint64_t> seeds;
  seeds.reserve(count);
  for (std::size_t i = 0; i < count; ++i) seeds.push_back(kSeedBase + i);
  return seeds;
}

enum class Schedule { kNone, kCrashBeta, kCrashRestartAlpha };

const char* to_label(Schedule s) {
  switch (s) {
    case Schedule::kNone: return "none";
    case Schedule::kCrashBeta: return "crash-beta";
    case Schedule::kCrashRestartAlpha: return "crash+restart-alpha";
  }
  return "?";
}

std::string cell(double loss, Schedule schedule, std::uint64_t seed) {
  std::ostringstream out;
  out << "cell loss=" << loss << " schedule=" << to_label(schedule)
      << " seed=0x" << std::hex << seed
      << "; reproduce with: V_FUZZ_SEED=0x" << seed
      << " tests/test_fault_matrix";
  return out.str();
}

/// Open `name` up to `attempts` times, `gap` apart.  A success must carry
/// exactly `expect` — wrong bytes fail the test on the spot.  Clean errors
/// are tolerated (the scenario may have the server down); returns whether
/// the open eventually succeeded so callers can assert availability where
/// the scenario guarantees it.
Co<bool> open_eventually(ipc::Process self, svc::Rt& rt,
                         std::string_view name, std::string_view expect,
                         int attempts, sim::SimDuration gap) {
  for (int i = 0; i < attempts; ++i) {
    if (i > 0) co_await self.delay(gap);
    auto opened = co_await rt.open(name, kOpenRead);
    if (!opened.ok()) continue;  // clean failure: retry after the gap
    svc::File f = opened.take();
    auto bytes = co_await f.read_all();
    if (!bytes.ok()) {
      (void)co_await f.close();
      continue;
    }
    EXPECT_EQ(std::string(
                  reinterpret_cast<const char*>(bytes.value().data()),
                  bytes.value().size()),
              expect)
        << "open(" << name << ") returned WRONG BYTES";
    (void)co_await f.close();
    co_return true;
  }
  co_return false;
}

struct WorkItem {
  std::string_view name;
  std::string_view expect;
  bool on_beta;  ///< served by (or through) beta
};

constexpr WorkItem kWorkload[] = {
    {"usr/mann/naming.mss", "Distributed name interpretation.", false},
    {"usr/mann/paper.mss", "ICDCS 1984.", false},
    {"[home]paper.mss", "ICDCS 1984.", false},
    {"[alpha]usr/mann/naming.mss", "Distributed name interpretation.", false},
    {"[beta]pub/readme", "public files live here", true},
    {"[beta]pub/data/points.dat", "1 2 3 4 5", true},
    {"usr/mann/proj/readme", "public files live here", true},
    {"usr/mann/proj/data/points.dat", "1 2 3 4 5", true},
};

TEST(FaultMatrix, ChaosSweepNeverLiesAndRecoversBounded) {
  constexpr double kLossRates[] = {0.0, 0.01, 0.05, 0.20};
  constexpr Schedule kSchedules[] = {Schedule::kNone, Schedule::kCrashBeta,
                                     Schedule::kCrashRestartAlpha};
  constexpr sim::SimTime kCrashAt = 40 * kMillisecond;
  constexpr sim::SimTime kRestartAt = 90 * kMillisecond;

  for (const double loss : kLossRates) {
    for (const Schedule schedule : kSchedules) {
      for (const auto seed : sweep_seeds()) {
        SCOPED_TRACE(cell(loss, schedule, seed));
        VFixture fx;
        fault::FaultPlan plan(seed);
        fault::LinkFaults link;
        link.drop = loss;
        link.duplicate = loss / 2;
        link.reorder = loss / 2;
        plan.set_default_link(link);
        switch (schedule) {
          case Schedule::kNone:
            break;
          case Schedule::kCrashBeta:
            plan.crash_at(kCrashAt, fx.fs2.id());
            break;
          case Schedule::kCrashRestartAlpha:
            plan.crash_at(kCrashAt, fx.fs1.id());
            plan.restart_at(kRestartAt, fx.fs1.id(),
                            [&fx] { fx.respawn_alpha(); });
            break;
        }
        fx.dom.install_faults(plan);

        fx.run_client([&](ipc::Process self, svc::Rt rt) -> Co<void> {
          svc::NameCache cache;
          rt.set_cache(&cache);
          svc::RecoveryPolicy policy;
          policy.noreply_retries = 1;
          policy.rebind_group = kStorageGroup;
          rt.set_recovery(policy);

          for (const auto& item : kWorkload) {
            // Availability: beta never comes back in kCrashBeta, so its
            // names are only required not to lie; everything else must
            // eventually be served.
            const bool must_succeed =
                !(schedule == Schedule::kCrashBeta && item.on_beta);
            const int attempts = must_succeed ? 12 : 2;
            const bool served = co_await open_eventually(
                self, rt, item.name, item.expect, attempts,
                25 * kMillisecond);
            if (must_succeed) {
              EXPECT_TRUE(served) << "open(" << item.name
                                  << ") never succeeded";
            }
            co_await self.delay(10 * kMillisecond);
          }

          if (schedule == Schedule::kCrashRestartAlpha) {
            // Bounded recovery: from the restart instant, a client that
            // keeps retrying must reach the NEW incarnation within the
            // retransmission + rebind budget.
            if (self.now() < kRestartAt) {
              co_await self.delay(kRestartAt - self.now());
            }
            const sim::SimTime resume = self.now();
            const bool recovered = co_await open_eventually(
                self, rt, "usr/mann/naming.mss",
                "Distributed name interpretation.", 40, 25 * kMillisecond);
            EXPECT_TRUE(recovered) << "no recovery after restart";
            EXPECT_LE(self.now() - resume, 4 * kSecond)
                << "recovery latency unbounded";
          }
          rt.set_cache(nullptr);
        });

        // Plan / kernel accounting coherence for the cell.
        const auto& st = plan.stats();
        if (loss == 0.0) {
          EXPECT_EQ(st.drops, 0u);
          EXPECT_EQ(st.duplicates, 0u);
          EXPECT_EQ(st.reorders, 0u);
        } else {
          EXPECT_GT(st.packets_seen, 0u);
        }
        EXPECT_EQ(st.crashes, schedule == Schedule::kNone ? 0u : 1u);
        EXPECT_EQ(st.restarts,
                  schedule == Schedule::kCrashRestartAlpha ? 1u : 0u);
      }
    }
  }
}

/// One engineered failing cell: the wire from the workstation to beta is
/// dead, so the beta open defeats its retry budget and the kernel's
/// kNoReply path fires an automatic flight-recorder dump.  Runs under
/// schedule fuzz with `seed` and returns the rendered dump document.
std::string run_failing_cell_and_dump(std::uint64_t seed) {
  VFixture fx(ipc::CalibrationParams::SunWorkstation3Mbit(),
              servers::DiskModel::kMemory, naming::TeamConfig{}, seed);
  fault::FaultPlan plan(seed);
  fault::LinkFaults dead_wire;
  dead_wire.drop = 1.0;
  plan.set_link(fx.ws1.id(), fx.fs2.id(), dead_wire);
  fault::RetryPolicy quick;
  quick.initial_timeout = 4 * kMillisecond;
  quick.backoff = 2.0;
  quick.max_timeout = 16 * kMillisecond;
  quick.budget = 2;
  plan.set_retry(quick);
  fx.dom.install_faults(plan);

  fx.run_client([&](ipc::Process self, svc::Rt rt) -> Co<void> {
    (void)self;
    auto opened = co_await rt.open("[beta]pub/readme", kOpenRead);
    EXPECT_FALSE(opened.ok()) << "beta is unreachable by construction";
  });
  EXPECT_GT(fx.dom.flight().triggers(), 0u)
      << "retry-budget defeat did not trigger a dump";
  return fx.dom.flight().chrome_json();
}

TEST(FaultMatrix, FailingCellDumpIsByteIdentical) {
  // The dump is a REPRODUCTION ARTIFACT, not a log: flight records carry
  // simulated time and deterministic sequence numbers only, so the same
  // failing fuzz seed must render the same bytes, run after run.
  constexpr std::uint64_t kFailingSeed = 0xFA07D00DULL;
  const std::string first = run_failing_cell_and_dump(kFailingSeed);
  const std::string second = run_failing_cell_and_dump(kFailingSeed);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second) << "flight dump differs across identical runs";
}

}  // namespace
}  // namespace v
