// The sharded prefix-server fabric (DESIGN.md 4m, PROTOCOL.md 14):
//
//   - ShardMap wire format: round trip, torn/truncated/garbage rejection,
//     self-delimiting parse, range routing;
//   - live fabric: clients multicast-fetch the map and route opens one-hop
//     to the owning shard, verified against the content oracle;
//   - ownership validation: a shard whose range shrank refuses a client
//     holding yesterday's map (kStaleContext); the client refetches and
//     succeeds — never answered wrongly.  Edits to a shard's table leave
//     every map valid;
//   - churn: crash a shard mid-run, hand its range to a successor, restart
//     it, hand the range back.  Clients keep opening throughout; the oracle
//     must count zero wrong replies and the map version must advance.  A
//     restart that overtakes the handoff, and a successor that sheds the
//     replay, must not lose a binding either.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/reply_codes.hpp"
#include "naming/protocol.hpp"
#include "naming/shard_map.hpp"
#include "servers/file_server.hpp"
#include "servers/shard_fabric.hpp"
#include "svc/file.hpp"
#include "svc/runtime.hpp"
#include "svc/shard_router.hpp"
#include "wload/forest.hpp"

namespace v {
namespace {

using namespace sim;
using naming::ShardMap;

// --- wire format -----------------------------------------------------------------

ShardMap sample_map() {
  ShardMap m;
  m.version = 7;
  m.shards = {
      {.lo = "", .server_pid = 0x0101, .generation = 3},
      {.lo = "home", .server_pid = 0x0202, .generation = 0},
      {.lo = "usr", .server_pid = 0x0303, .generation = 41},
  };
  return m;
}

TEST(ShardMapWire, RoundTrip) {
  const ShardMap m = sample_map();
  ASSERT_TRUE(m.well_formed());
  std::vector<std::byte> bytes;
  m.serialize(bytes);
  ASSERT_GT(bytes.size(), 0u);
  ASSERT_LE(bytes.size(), ShardMap::kMaxBytes);

  ShardMap out;
  ASSERT_TRUE(ShardMap::parse(bytes, out));
  EXPECT_EQ(out.version, m.version);
  ASSERT_EQ(out.shards.size(), m.shards.size());
  for (std::size_t i = 0; i < m.shards.size(); ++i) {
    EXPECT_EQ(out.shards[i].lo, m.shards[i].lo);
    EXPECT_EQ(out.shards[i].server_pid, m.shards[i].server_pid);
    EXPECT_EQ(out.shards[i].generation, m.shards[i].generation);
  }
}

TEST(ShardMapWire, ParseIsSelfDelimiting) {
  // A 4 KiB MoveTo buffer arrives with the map at the front and stale
  // leftovers behind it; parse must stop at the encoded length.
  const ShardMap m = sample_map();
  std::vector<std::byte> bytes;
  m.serialize(bytes);
  bytes.resize(ShardMap::kMaxBytes, std::byte{0xEE});  // stale tail
  ShardMap out;
  ASSERT_TRUE(ShardMap::parse(bytes, out));
  EXPECT_EQ(out.shards.size(), 3u);
}

TEST(ShardMapWire, RejectsGarbageAndTruncation) {
  ShardMap out;
  // Wrong magic.
  std::vector<std::byte> junk(64, std::byte{0x5A});
  EXPECT_FALSE(ShardMap::parse(junk, out));
  // Truncated mid-entry.
  const ShardMap m = sample_map();
  std::vector<std::byte> bytes;
  m.serialize(bytes);
  bytes.resize(bytes.size() - 3);
  EXPECT_FALSE(ShardMap::parse(bytes, out));
  // Not well-formed on the wire: first range must be the "" anchor.
  ShardMap gap = sample_map();
  gap.shards[0].lo = "a";
  ASSERT_FALSE(gap.well_formed());
  std::vector<std::byte> gap_bytes;
  gap.serialize(gap_bytes);
  EXPECT_FALSE(ShardMap::parse(gap_bytes, out));
  // A rejected parse leaves `out` untouched.
  EXPECT_TRUE(out.empty());
}

TEST(ShardMapWire, RoutesByRange) {
  const ShardMap m = sample_map();
  EXPECT_EQ(m.route("alpha"), 0u);  // "" <= alpha < home
  EXPECT_EQ(m.route("home"), 1u);   // lower bound inclusive
  EXPECT_EQ(m.route("print"), 1u);
  EXPECT_EQ(m.route("usr"), 2u);
  EXPECT_EQ(m.route("zzz"), 2u);    // last range is open-ended
}

// --- live fabric -----------------------------------------------------------------

/// Forest + file-server pool + fabric, ready for clients.
struct FabricFixture {
  ipc::Domain dom;
  wload::Forest forest;
  std::vector<std::unique_ptr<servers::FileServer>> fs;
  servers::ShardFabric fabric;

  explicit FabricFixture(std::size_t shards, wload::ForestSpec spec,
                         naming::TeamConfig team = {.workers = 4,
                                                    .queue_cap = 64})
      : forest(spec), fabric(dom, {.shards = shards, .team = team}) {
    std::vector<servers::FileServer*> ptrs;
    std::vector<ipc::ProcessId> pids;
    for (int i = 0; i < 2; ++i) {
      ipc::Host& host = dom.add_host("fs" + std::to_string(i));
      fs.push_back(std::make_unique<servers::FileServer>(
          "fs" + std::to_string(i), servers::DiskModel::kMemory,
          /*register_service=*/false));
      servers::FileServer* srv = fs.back().get();
      ptrs.push_back(srv);
      pids.push_back(
          host.spawn("fs", [srv](ipc::Process p) { return srv->run(p); }));
    }
    fabric.install(forest.install(ptrs, pids));
  }

  static wload::ForestSpec small_spec() {
    wload::ForestSpec spec;
    spec.prefixes = 8;
    spec.dirs_per_prefix = 2;
    spec.files_per_dir = 2;
    return spec;
  }

  /// Index of a file whose prefix the freshly installed fabric routes to
  /// `shard` (file_count() when there is none).
  [[nodiscard]] std::size_t file_on(std::size_t shard) const {
    const ShardMap map = fabric.snapshot();
    std::size_t f = 0;
    while (f < forest.file_count() &&
           map.route(forest.prefix(forest.prefix_of(f))) != shard) {
      ++f;
    }
    return f;
  }

  /// Open `name` through `router` and verify the bytes against the oracle.
  /// Returns false on any non-ok step; bumps `wrong` on an oracle mismatch
  /// or a kNotFound (every forest name exists, so "no such name" is a wrong
  /// answer, not a refusal).
  static sim::Co<bool> open_verify(svc::ShardRouter& router,
                                   const std::string& name, int& wrong) {
    auto opened = co_await router.open(name, naming::wire::kOpenRead);
    if (!opened.ok()) {
      if (opened.code() == ReplyCode::kNotFound) ++wrong;
      co_return false;
    }
    svc::File file = opened.take().file;
    auto bytes = co_await file.read_all();
    bool ok = bytes.ok();
    if (ok) {
      const std::string expect = wload::Forest::content_for(name);
      const std::string got(reinterpret_cast<const char*>(bytes.value().data()),
                            bytes.value().size());
      if (got != expect) {
        ++wrong;
        ok = false;
      }
    }
    (void)co_await file.close();
    co_return ok;
  }

  /// Outcome of a fleet of clients, summed over every client.
  struct Fleet {
    int oks = 0;
    int wrong = 0;
    int hard_failures = 0;
    std::uint64_t stale_retries = 0;
    std::uint64_t map_fetches = 0;
  };

  /// Spawn `clients` hosts that each round-robin over every file (starting
  /// at a different one) with `pause` between opens, until `until`.
  void spawn_fleet(std::size_t clients, sim::SimTime until,
                   sim::SimDuration pause, Fleet& fleet) {
    for (std::size_t c = 0; c < clients; ++c) {
      ipc::Host& ws = dom.add_host("ws" + std::to_string(c));
      ws.spawn("client", [this, c, until, pause,
                          &fleet](ipc::Process self) -> sim::Co<void> {
        svc::Rt rt(self, svc::NameEnv{});
        svc::ShardRouter router(rt, {.fabric_group = fabric.group()});
        std::size_t f = c % forest.file_count();
        while (self.now() < until) {
          if (co_await open_verify(router, forest.name(f), fleet.wrong)) {
            ++fleet.oks;
          } else {
            ++fleet.hard_failures;
          }
          f = (f + 1) % forest.file_count();
          co_await self.delay(pause);
        }
        fleet.stale_retries += router.stats().stale_retries;
        fleet.map_fetches += router.stats().map_fetches;
      });
    }
  }
};

TEST(ShardFabric, FetchRouteAndVerifyEveryFile) {
  FabricFixture fx(4, FabricFixture::small_spec());
  ASSERT_EQ(fx.fabric.shard_count(), 4u);

  int oks = 0, wrong = 0;
  svc::ShardRouter::Stats stats;
  ipc::Host& ws = fx.dom.add_host("ws");
  ws.spawn("client", [&](ipc::Process self) -> sim::Co<void> {
    svc::Rt rt(self, svc::NameEnv{});
    svc::ShardRouter router(rt, {.fabric_group = fx.fabric.group()});
    for (std::size_t f = 0; f < fx.forest.file_count(); ++f) {
      if (co_await FabricFixture::open_verify(router, fx.forest.name(f),
                                              wrong)) {
        ++oks;
      }
    }
    // The fetched map mirrors the fabric's authoritative snapshot.
    EXPECT_EQ(router.map().version, fx.fabric.map_version());
    EXPECT_EQ(router.map().shards.size(), 4u);
    stats = router.stats();
  });
  fx.dom.run();

  EXPECT_EQ(fx.dom.process_failures(), 0u) << fx.dom.first_failure();
  EXPECT_EQ(oks, static_cast<int>(fx.forest.file_count()));
  EXPECT_EQ(wrong, 0);
  // One multicast fetch amortizes over every open; no repair cycles on a
  // quiet fabric.
  EXPECT_EQ(stats.map_fetches, 1u);
  EXPECT_EQ(stats.stale_retries, 0u);
  EXPECT_EQ(stats.failures, 0u);
}

TEST(ShardFabric, StaleMapIsRefusedThenRepaired) {
  FabricFixture fx(2, FabricFixture::small_spec());
  const std::size_t f = fx.file_on(1);  // shard 1's range
  ASSERT_LT(f, fx.forest.file_count());
  const std::string name = fx.forest.name(f);

  int wrong = 0;
  svc::ShardRouter::Stats stats;
  ipc::Host& ws = fx.dom.add_host("ws");
  ws.spawn("client", [&](ipc::Process self) -> sim::Co<void> {
    // Shard 1 dies and its range is handed to shard 0.
    fx.fabric.host(1).crash();
    fx.fabric.on_crash(1);
    while (fx.fabric.churn_stats().handoffs == 0) {
      co_await self.delay(10 * kMillisecond);
    }
    // Warm the map: it routes shard 1's range to shard 0.
    svc::Rt rt(self, svc::NameEnv{});
    svc::ShardRouter router(rt, {.fabric_group = fx.fabric.group()});
    EXPECT_TRUE(co_await FabricFixture::open_verify(router, name, wrong));
    EXPECT_EQ(router.map().shards.size(), 1u);

    // The restart shrinks shard 0's range back, so its ownership generation
    // moves before the handback deletes a single copy; the router's cached
    // map now quotes yesterday's number.
    fx.fabric.on_restart(1);

    // The stale map must be refused and repaired, not wrongly answered.
    EXPECT_TRUE(co_await FabricFixture::open_verify(router, name, wrong));
    EXPECT_EQ(router.map().shards.size(), 2u);
    stats = router.stats();
  });
  fx.dom.run();

  EXPECT_EQ(fx.dom.process_failures(), 0u) << fx.dom.first_failure();
  EXPECT_EQ(wrong, 0);
  EXPECT_GE(stats.stale_retries, 1u);
  EXPECT_EQ(stats.map_fetches, 2u);  // warm fetch + repair refetch
  EXPECT_EQ(stats.failures, 0u);
}

TEST(ShardFabric, ContentMutationKeepsMapValid) {
  FabricFixture fx(2, FabricFixture::small_spec());
  const std::size_t f = fx.file_on(0);
  ASSERT_LT(f, fx.forest.file_count());
  const std::string name = fx.forest.name(f);
  const std::string prefix = fx.forest.prefix(fx.forest.prefix_of(f));

  int wrong = 0;
  ReplyCode after_delete = ReplyCode::kOk;
  svc::ShardRouter::Stats stats;
  ipc::Host& ws = fx.dom.add_host("ws");
  ws.spawn("client", [&](ipc::Process self) -> sim::Co<void> {
    svc::Rt rt(self, svc::NameEnv{});
    svc::ShardRouter router(rt, {.fabric_group = fx.fabric.group()});
    EXPECT_TRUE(co_await FabricFixture::open_verify(router, name, wrong));

    // Gated edits to shard 0's table move its content generation but not
    // its ownership, so the cached map stays valid.
    svc::Rt admin(self, svc::NameEnv{
        .prefix_server = fx.fabric.pid(0),
        .current = {fx.fabric.pid(0), naming::kDefaultContext}});
    EXPECT_EQ(co_await admin.add_prefix(
                  "aaa-fresh", {fx.fabric.pid(0), naming::kDefaultContext}),
              ReplyCode::kOk);
    EXPECT_TRUE(co_await FabricFixture::open_verify(router, name, wrong));

    // The shard answers from its current table: once the prefix is gone,
    // the same map draws an authoritative kNotFound, not a refusal.
    EXPECT_EQ(co_await admin.delete_prefix(prefix), ReplyCode::kOk);
    auto opened = co_await router.open(name, naming::wire::kOpenRead);
    after_delete = opened.ok() ? ReplyCode::kOk : opened.code();
    stats = router.stats();
  });
  fx.dom.run();

  EXPECT_EQ(fx.dom.process_failures(), 0u) << fx.dom.first_failure();
  EXPECT_EQ(wrong, 0);
  EXPECT_EQ(after_delete, ReplyCode::kNotFound);
  EXPECT_EQ(stats.stale_retries, 0u);
  EXPECT_EQ(stats.map_fetches, 1u);
  EXPECT_EQ(stats.failures, 0u);
}

TEST(ShardFabric, CrashHandoffRestartHandbackZeroWrong) {
  FabricFixture fx(4, FabricFixture::small_spec());
  const std::uint32_t v0 = fx.fabric.map_version();

  // Kill shard 1 at 400 ms, bring it back at 900 ms.  The fabric hands its
  // range to a successor, then hands it back — all through the gated
  // protocol, all while the client below keeps opening shard 1's files.
  fx.dom.loop().schedule_at(400 * kMillisecond, [&fx] {
    fx.fabric.host(1).crash();
    fx.fabric.on_crash(1);
  });
  fx.dom.loop().schedule_at(900 * kMillisecond, [&fx] {
    fx.fabric.on_restart(1);
  });

  int oks = 0, wrong = 0, hard_failures = 0;
  svc::ShardRouter::Stats stats;
  ipc::Host& ws = fx.dom.add_host("ws");
  ws.spawn("client", [&](ipc::Process self) -> sim::Co<void> {
    svc::Rt rt(self, svc::NameEnv{});
    svc::ShardRouter router(rt, {.fabric_group = fx.fabric.group()});
    // Round-robin over every file (all four shards, crashed one included)
    // for the whole churn window and past the handback.
    std::size_t f = 0;
    while (self.now() < 1600 * kMillisecond) {
      if (co_await FabricFixture::open_verify(router, fx.forest.name(f),
                                              wrong)) {
        ++oks;
      } else {
        ++hard_failures;
      }
      f = (f + 1) % fx.forest.file_count();
      co_await self.delay(10 * kMillisecond);
    }
    stats = router.stats();
  });
  fx.dom.run();

  EXPECT_EQ(fx.dom.process_failures(), 0u) << fx.dom.first_failure();
  // THE gate: a reply may be delayed or refused, never wrong.
  EXPECT_EQ(wrong, 0);
  EXPECT_EQ(hard_failures, 0);
  EXPECT_GT(oks, 50);
  // The churn actually happened and the client actually repaired through it.
  EXPECT_EQ(fx.fabric.churn_stats().handoffs, 1u);
  EXPECT_EQ(fx.fabric.churn_stats().handbacks, 1u);
  EXPECT_GE(fx.fabric.map_version(), v0 + 2);  // handoff + restart republish
  EXPECT_GE(stats.map_fetches, 2u);
  EXPECT_GT(stats.noreply_retries + stats.stale_retries, 0u);
  EXPECT_EQ(stats.failures, 0u);
}

TEST(ShardFabric, ChurnStaleRefusalsBoundedByClients) {
  // The storm bound: only a change of owner stales a map, so one crash /
  // restart cycle costs each client at most a couple of refusals — not one
  // per binding the handoff and handback move.  (A map quoting table
  // generations draws 96 refusals here; ownership generations draw 8.)
  constexpr std::size_t kClients = 8;
  wload::ForestSpec spec = FabricFixture::small_spec();
  spec.prefixes = 64;  // 16 bindings move per handoff and per handback
  FabricFixture fx(4, spec);
  fx.dom.loop().schedule_at(400 * kMillisecond, [&fx] {
    fx.fabric.host(1).crash();
    fx.fabric.on_crash(1);
  });
  fx.dom.loop().schedule_at(900 * kMillisecond,
                            [&fx] { fx.fabric.on_restart(1); });
  FabricFixture::Fleet fleet;
  fx.spawn_fleet(kClients, 1600 * kMillisecond, 2 * kMillisecond, fleet);
  fx.dom.run();

  EXPECT_EQ(fx.dom.process_failures(), 0u) << fx.dom.first_failure();
  EXPECT_EQ(fleet.wrong, 0);
  EXPECT_EQ(fleet.hard_failures, 0);
  EXPECT_EQ(fx.fabric.churn_stats().handoffs, 1u);
  EXPECT_EQ(fx.fabric.churn_stats().handbacks, 1u);
  EXPECT_LE(fleet.stale_retries, kClients * 2);
}

TEST(ShardFabric, RestartOvertakingHandoffLeavesMapAlone) {
  // Restart 1 ms after the crash: the handoff agent is still replaying.  It
  // must abandon its work, not retire the live shard or re-add bindings
  // behind the handback.
  FabricFixture fx(4, FabricFixture::small_spec());
  const std::size_t f = fx.file_on(1);
  ASSERT_LT(f, fx.forest.file_count());
  const std::string prefix = fx.forest.prefix(fx.forest.prefix_of(f));
  fx.dom.loop().schedule_at(400 * kMillisecond, [&fx] {
    fx.fabric.host(1).crash();
    fx.fabric.on_crash(1);
  });
  fx.dom.loop().schedule_at(401 * kMillisecond,
                            [&fx] { fx.fabric.on_restart(1); });
  FabricFixture::Fleet fleet;
  fx.spawn_fleet(4, 1200 * kMillisecond, 10 * kMillisecond, fleet);
  fx.dom.run();

  EXPECT_EQ(fx.dom.process_failures(), 0u) << fx.dom.first_failure();
  EXPECT_EQ(fleet.wrong, 0);
  EXPECT_EQ(fleet.hard_failures, 0);
  EXPECT_EQ(fx.fabric.churn_stats().handoffs, 0u);
  EXPECT_EQ(fx.fabric.churn_stats().handbacks, 1u);
  // Shard 1 is published and owns its own range again.
  const ShardMap map = fx.fabric.snapshot();
  EXPECT_EQ(map.shards.size(), 4u);
  EXPECT_EQ(map.shards[map.route(prefix)].server_pid, fx.fabric.pid(1).raw);
}

TEST(ShardFabric, ShedReplayIsRetriedNotLost) {
  // Two workers and a one-deep queue per shard, hammered by concurrent
  // clients: the successor sheds handoff adds and handback deletes with
  // kBusy.  The agents retry them; no binding is lost and no failure counts.
  FabricFixture fx(4, FabricFixture::small_spec(),
                   {.workers = 2, .queue_cap = 1});
  fx.dom.loop().schedule_at(400 * kMillisecond, [&fx] {
    fx.fabric.host(1).crash();
    fx.fabric.on_crash(1);
  });
  fx.dom.loop().schedule_at(900 * kMillisecond,
                            [&fx] { fx.fabric.on_restart(1); });
  FabricFixture::Fleet fleet;
  fx.spawn_fleet(16, 1600 * kMillisecond, 1 * kMillisecond, fleet);
  fx.dom.run();

  EXPECT_EQ(fx.dom.process_failures(), 0u) << fx.dom.first_failure();
  EXPECT_EQ(fleet.wrong, 0);
  EXPECT_GT(fx.fabric.shed_count(), 0u);
  const auto& churn = fx.fabric.churn_stats();
  EXPECT_GT(churn.replay_retries, 0u);
  EXPECT_EQ(churn.handoffs, 1u);
  EXPECT_EQ(churn.handbacks, 1u);
  EXPECT_EQ(churn.handoff_failures, 0u);
  EXPECT_EQ(churn.handback_failures, 0u);
}

TEST(ShardFabric, SingleShardDegeneratesToOneTeam) {
  // shards=1 is the PR 5 single-team topology behind the fetch protocol:
  // everything routes to shard 0 and the map holds exactly the "" anchor.
  FabricFixture fx(1, FabricFixture::small_spec());
  int oks = 0, wrong = 0;
  ipc::Host& ws = fx.dom.add_host("ws");
  ws.spawn("client", [&](ipc::Process self) -> sim::Co<void> {
    svc::Rt rt(self, svc::NameEnv{});
    svc::ShardRouter router(rt, {.fabric_group = fx.fabric.group()});
    for (std::size_t f = 0; f < fx.forest.file_count(); ++f) {
      if (co_await FabricFixture::open_verify(router, fx.forest.name(f),
                                              wrong)) {
        ++oks;
      }
    }
    EXPECT_EQ(router.map().shards.size(), 1u);
    EXPECT_EQ(router.map().shards[0].lo, "");
  });
  fx.dom.run();
  EXPECT_EQ(fx.dom.process_failures(), 0u) << fx.dom.first_failure();
  EXPECT_EQ(oks, static_cast<int>(fx.forest.file_count()));
  EXPECT_EQ(wrong, 0);
}

}  // namespace
}  // namespace v
