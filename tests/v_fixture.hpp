// A standard simulated V installation for tests: one user workstation with
// a per-user context prefix server, and two file-server hosts ("alpha" and
// "beta") with a pre-populated naming forest, including a cross-server link
// (the curved arrow of Figure 4):
//
//   alpha: /usr/mann/{naming.mss,paper.mss}  /bin/{edit,shell}  /tmp
//          /usr/mann/proj -> beta:/pub           (cross-server link)
//   beta:  /pub/readme  /pub/data/points.dat
//
// Prefixes on ws1: [alpha] [beta] [home]=alpha:/usr/mann [bin]=alpha:/bin
//                  [storage] (logical -> ServiceId::kStorageServer)
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <optional>

#include "ipc/kernel.hpp"
#include "naming/types.hpp"
#include "servers/file_server.hpp"
#include "servers/prefix_server.hpp"
#include "svc/runtime.hpp"

namespace v::test {

/// Service group every file-server incarnation joins (V-fault rebinding):
/// recovery probes multicast here reach whichever incarnations are alive,
/// under whatever pids they currently hold.
inline constexpr ipc::GroupId kStorageGroup = 0xFA01;

struct VFixture {
  /// `fuzz_seed` != nullopt puts the event loop in schedule-fuzz mode
  /// before anything is spawned: same-timestamp events fire in a
  /// seed-determined permutation instead of scheduling order.
  explicit VFixture(
      ipc::CalibrationParams params =
          ipc::CalibrationParams::SunWorkstation3Mbit(),
      servers::DiskModel disk = servers::DiskModel::kMemory,
      naming::TeamConfig team = {},
      std::optional<std::uint64_t> fuzz_seed = std::nullopt)
      : dom(params),
        ws1(dom.add_host("ws1")),
        fs1(dom.add_host("fs1")),
        fs2(dom.add_host("fs2")),
        alpha("alpha", disk, /*register_service=*/true, team),
        beta("beta", disk, /*register_service=*/false, team),
        prefixes("mann", /*register_service=*/true, team) {
    if (fuzz_seed) dom.loop().enable_fuzz(*fuzz_seed);
    // Populate alpha.
    alpha.put_file("usr/mann/naming.mss", "Distributed name interpretation.");
    alpha.put_file("usr/mann/paper.mss", "ICDCS 1984.");
    alpha.put_file("bin/edit", std::string(4096, 'E'));
    alpha.put_file("bin/shell", std::string(2048, 'S'));
    alpha.mkdirs("tmp");
    alpha.map_well_known(naming::kHomeContext, "usr/mann");
    alpha.map_well_known(naming::kProgramsContext, "bin");
    alpha.map_well_known(naming::kTempContext, "tmp");
    // Populate beta.
    beta.put_file("pub/readme", "public files live here");
    beta.put_file("pub/data/points.dat", "1 2 3 4 5");

    // Every file-server incarnation joins the storage group on (re)start,
    // making it reachable by multicast recovery probes after a restart
    // hands it a fresh pid.
    alpha.set_service_group(kStorageGroup);
    beta.set_service_group(kStorageGroup);
    alpha_pid = fs1.spawn("alpha-fs", [this](ipc::Process p) {
      return alpha.run(p);
    });
    beta_pid = fs2.spawn("beta-fs", [this](ipc::Process p) {
      return beta.run(p);
    });

    // Cross-server link: alpha:/usr/mann/proj -> beta:/pub.
    alpha.put_link("usr/mann/proj",
                   {beta_pid, beta.context_of("pub")});

    // Standard prefixes for this user.
    prefixes.define("alpha", {.target = {alpha_pid, naming::kDefaultContext}});
    prefixes.define("beta", {.target = {beta_pid, naming::kDefaultContext}});
    prefixes.define("home",
                    {.target = {alpha_pid, alpha.context_of("usr/mann")}});
    prefixes.define("bin", {.target = {alpha_pid, alpha.context_of("bin")}});
    servers::ContextPrefixServer::Entry storage_entry;
    storage_entry.logical = true;
    storage_entry.service = ipc::ServiceId::kStorageServer;
    prefixes.define("storage", storage_entry);
    // Ordinary entries whose pinned server dies fall back to a multicast
    // recovery probe of the storage group.
    prefixes.set_rebind_group(kStorageGroup);
    prefix_pid = ws1.spawn("prefix-server", [this](ipc::Process p) {
      return prefixes.run(p);
    });
  }

  /// Restart alpha's host and re-spawn the server as a NEW incarnation
  /// (fresh pid, fresh generation floor; rejoins the storage group).
  void respawn_alpha() {
    if (!fs1.alive()) fs1.restart();
    alpha_pid = fs1.spawn("alpha-fs", [this](ipc::Process p) {
      return alpha.run(p);
    });
  }
  /// Same for beta.
  void respawn_beta() {
    if (!fs2.alive()) fs2.restart();
    beta_pid = fs2.spawn("beta-fs", [this](ipc::Process p) {
      return beta.run(p);
    });
  }

  /// Spawn a client whose body receives an attached runtime (current
  /// context = alpha's root) and run the simulation to idle.
  void run_client(std::function<sim::Co<void>(ipc::Process, svc::Rt)> body) {
    bool client_finished = false;
    ws1.spawn("client", [this, &client_finished, body = std::move(body)](
                            ipc::Process self) -> sim::Co<void> {
      auto rt = co_await svc::Rt::attach(
          self, naming::ContextPair{alpha_pid, naming::kDefaultContext});
      co_await body(self, rt);
      client_finished = true;
    });
    dom.run();
    check_clean();
    // A hung client (e.g. a request that was silently dropped) must fail
    // the test rather than pass vacuously.
    EXPECT_TRUE(client_finished) << "client parked forever";
  }

  /// Post-run health checks shared by every test that drives the fixture:
  /// no fiber failures (race reports arrive this way), no non-conformant
  /// server replies, no negative-delay clamps.
  void check_clean() {
    EXPECT_EQ(dom.process_failures(), 0u) << dom.first_failure();
    EXPECT_EQ(dom.lint().counters().server_violations, 0u)
        << dom.lint().first_dump();
    EXPECT_EQ(dom.loop().stats().negative_delay_clamps, 0u);
    // V-fault invariants: at-most-once (no server answered a request
    // twice) and monotone incarnations (every restart raised its
    // generation floor).
    EXPECT_EQ(dom.lint().counters().duplicate_replies, 0u)
        << dom.lint().first_dump();
    EXPECT_EQ(dom.lint().counters().stale_incarnations, 0u)
        << dom.lint().first_dump();
    // Chaos-oracle trigger: any failed expectation in the current test
    // fires a flight-recorder dump, so a failing fuzz seed hands back a
    // Perfetto-loadable post-mortem instead of just a counter mismatch.
    // Set V_FLIGHT_DUMP=<path> to get the document as a file.
    if (::testing::Test::HasFailure()) {
      if (const char* path = std::getenv("V_FLIGHT_DUMP")) {
        dom.flight().set_dump_path(path);
      }
      dom.flight().trigger(obs::kDumpChaosOracle, dom.now());
    }
  }

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
};

}  // namespace v::test
