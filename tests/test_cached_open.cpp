// The stale-binding test matrix for the validated cached open path
// (DESIGN.md 4g, PROTOCOL.md 11):
//
//   - mutation-then-reopen under the schedule fuzzer: a gated mutation
//     between two cached opens must surface as kStaleContext and a correct
//     re-resolution under EVERY explored interleaving, never a wrong answer;
//   - crash of the cached target: the one-hop send dies with kNoReply, the
//     entry is invalidated, and the fallback walk reports the truth;
//   - concurrent invalidation: two worker processes sharing one cache, one
//     of them churning the directory, stay correct and race-free;
//   - the wire-level accounting: a warm hit is exactly ONE message
//     transaction, its trace is a single hop span, the namecache counters
//     are readable through Open("[metrics]namecache/..."), and malformed
//     expected-generation headers are rejected (kBadArgs) by the lint.
//
// Reproduce one failing seed standalone:
//   V_FUZZ_SEED=0x5eed0007 build/tests/test_cached_open
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "msg/csname.hpp"
#include "msg/request_codes.hpp"
#include "naming/protocol.hpp"
#include "servers/metrics_server.hpp"
#include "svc/name_cache.hpp"
#include "v_fixture.hpp"

namespace v {
namespace {

using naming::wire::kOpenRead;
using sim::Co;
using sim::kMillisecond;
using svc::NameCache;
using test::VFixture;

constexpr std::uint64_t kSeedBase = 0x5eed0000ULL;

/// Same sweep contract as test_schedule_fuzz: V_FUZZ_SEED pins a single
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

std::string repro(std::uint64_t seed, std::string_view scenario) {
  std::ostringstream out;
  out << scenario << " failed under seed 0x" << std::hex << seed
      << "; reproduce with: V_FUZZ_SEED=0x" << seed
      << " tests/test_cached_open";
  return out.str();
}

/// Open `name` through `rt`, assert success and that the bytes match
/// `expect`, and close.  The correctness oracle of the whole matrix: a
/// stale binding may cost a refusal + re-resolution, never wrong bytes.
Co<void> open_expect(svc::Rt& rt, std::string_view name,
                     std::string_view expect) {
  auto opened = co_await rt.open(name, kOpenRead);
  EXPECT_TRUE(opened.ok()) << "open(" << name << ") -> "
                           << to_string(opened.code());
  if (!opened.ok()) co_return;
  svc::File f = opened.take();
  auto bytes = co_await f.read_all();
  EXPECT_TRUE(bytes.ok());
  if (!bytes.ok()) co_return;
  EXPECT_EQ(std::string(
                reinterpret_cast<const char*>(bytes.value().data()),
                bytes.value().size()),
            expect);
  EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
}

// --- the fuzzed mutation matrix --------------------------------------------------

TEST(CachedOpen, FuzzedMutationThenReopenNeverLies) {
  for (const auto seed : sweep_seeds()) {
    SCOPED_TRACE(repro(seed, "mutation-then-reopen"));
    VFixture fx(ipc::CalibrationParams::SunWorkstation3Mbit(),
                servers::DiskModel::kMemory, {}, seed);
    fx.run_client([](ipc::Process, svc::Rt rt) -> Co<void> {
      NameCache cache;
      rt.set_cache(&cache);
      // Cold open learns the binding for usr/mann.
      co_await open_expect(rt, "usr/mann/naming.mss",
                           "Distributed name interpretation.");
      EXPECT_EQ(cache.size(), 1u);
      // A gated mutation advances the directory's generation underneath
      // the cached binding.
      EXPECT_EQ(co_await rt.create("usr/mann/fresh.txt"), ReplyCode::kOk);
      // The reopen takes the one-hop path, is REFUSED with kStaleContext,
      // and transparently re-resolves to the correct bytes.
      co_await open_expect(rt, "usr/mann/paper.mss", "ICDCS 1984.");
      EXPECT_EQ(cache.stale(), 1u);
      EXPECT_EQ(cache.fallbacks(), 1u);
      // The fallback re-learned the binding at the new generation: the
      // next open validates cleanly.
      co_await open_expect(rt, "usr/mann/naming.mss",
                           "Distributed name interpretation.");
      EXPECT_EQ(cache.stale(), 1u);
      EXPECT_GE(cache.hits(), 2u);  // the refused hit + the clean hit
      rt.set_cache(nullptr);
    });
  }
}

TEST(CachedOpen, FuzzedCrashedTargetFallsBackDetectably) {
  for (const auto seed : sweep_seeds()) {
    SCOPED_TRACE(repro(seed, "crash-then-reopen"));
    VFixture fx(ipc::CalibrationParams::SunWorkstation3Mbit(),
                servers::DiskModel::kMemory, {}, seed);
    fx.dom.loop().schedule_at(50 * kMillisecond, [&fx] { fx.fs2.crash(); });
    fx.run_client([](ipc::Process self, svc::Rt rt) -> Co<void> {
      NameCache cache;
      rt.set_cache(&cache);
      co_await open_expect(rt, "[beta]pub/readme", "public files live here");
      co_await self.delay(100 * kMillisecond);  // beta dies
      // The one-hop send hits the dead server (kNoReply), the entry is
      // invalidated, and the full walk reports the failure loudly.
      auto reopened = co_await rt.open("[beta]pub/readme", kOpenRead);
      EXPECT_FALSE(reopened.ok());
      EXPECT_EQ(cache.invalidations(), 1u);
      EXPECT_EQ(cache.fallbacks(), 1u);
      EXPECT_EQ(cache.size(), 0u);
      rt.set_cache(nullptr);
    });
  }
}

TEST(CachedOpen, FuzzedConcurrentInvalidationTwoWorkers) {
  // Two worker processes share ONE cache: worker B churns the directory
  // (each create a gated mutation) while worker A re-opens through the
  // shared bindings.  Every stale refusal must fall back to correct bytes;
  // the race detector and lint must stay silent under every interleaving.
  for (const auto seed : sweep_seeds()) {
    SCOPED_TRACE(repro(seed, "two-worker shared cache"));
    VFixture fx(ipc::CalibrationParams::SunWorkstation3Mbit(),
                servers::DiskModel::kMemory, {}, seed);
    NameCache shared;
    bool a_done = false;
    bool b_done = false;
    fx.ws1.spawn("worker-a", [&](ipc::Process self) -> Co<void> {
      svc::Rt rt(self, {fx.prefix_pid,
                        {fx.alpha_pid, naming::kDefaultContext}});
      rt.set_cache(&shared);
      for (int i = 0; i < 8; ++i) {
        co_await open_expect(rt, "usr/mann/naming.mss",
                             "Distributed name interpretation.");
        co_await self.delay(kMillisecond);
      }
      rt.set_cache(nullptr);
      a_done = true;
    });
    fx.ws1.spawn("worker-b", [&](ipc::Process self) -> Co<void> {
      svc::Rt rt(self, {fx.prefix_pid,
                        {fx.alpha_pid, naming::kDefaultContext}});
      rt.set_cache(&shared);
      for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(co_await rt.create("usr/mann/b" + std::to_string(i) +
                                     ".txt"),
                  ReplyCode::kOk);
        co_await open_expect(rt, "usr/mann/paper.mss", "ICDCS 1984.");
      }
      rt.set_cache(nullptr);
      b_done = true;
    });
    fx.dom.run();
    fx.check_clean();
    EXPECT_TRUE(a_done) << "worker A parked forever";
    EXPECT_TRUE(b_done) << "worker B parked forever";
    // Every fallback in this scenario is a stale refusal (nothing died),
    // and at least one binding was actually invalidated by the churn.
    EXPECT_EQ(shared.fallbacks(), shared.stale());
    EXPECT_GE(shared.stale(), 1u);
    EXPECT_GE(shared.hits(), 1u);
  }
}

// --- wire-level accounting --------------------------------------------------------

TEST(CachedOpen, WarmHitIsExactlyOneMessageTransaction) {
  VFixture fx;
  fx.run_client([&fx](ipc::Process, svc::Rt rt) -> Co<void> {
    NameCache cache;
    rt.set_cache(&cache);
    // Cold: full resolution through the prefix server, learns the binding.
    co_await open_expect(rt, "[alpha]usr/mann/naming.mss",
                         "Distributed name interpretation.");
    // Warm: the sibling open must be ONE direct transaction, no forwards.
    const auto before = fx.dom.stats();
    auto warm = co_await rt.open("[alpha]usr/mann/paper.mss", kOpenRead);
    const auto after = fx.dom.stats();
    EXPECT_EQ(after.messages_sent - before.messages_sent, 1u);
    EXPECT_EQ(after.forwards - before.forwards, 0u);
    EXPECT_TRUE(warm.ok());
    if (!warm.ok()) co_return;
    svc::File f = warm.take();
    EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.stale(), 0u);
    rt.set_cache(nullptr);
  });
}

TEST(CachedOpen, WrongExpectedGenerationAnswersStaleContext) {
  // The wire contract itself (PROTOCOL.md 11): a request quoting a
  // generation the context does not have is answered kStaleContext — a
  // well-formed request (zero lint rejects), refused loudly.
  VFixture fx;
  fx.run_client([&fx](ipc::Process self, svc::Rt /*rt*/) -> Co<void> {
    const std::string name = "tmp";
    auto req = msg::cs::make_request(
        msg::kQueryName, naming::kDefaultContext,
        static_cast<std::uint16_t>(name.size()));
    msg::cs::set_expected_generation(req, 0xfffffffe);  // never allocated
    ipc::Segments segs;
    segs.read = std::as_bytes(std::span(name.data(), name.size()));
    const auto reply = co_await self.send(req, fx.alpha_pid, segs);
    EXPECT_EQ(reply.reply_code(), ReplyCode::kStaleContext);
  });
  EXPECT_EQ(fx.dom.lint().counters().client_rejects, 0u);
}

TEST(CachedOpen, UnknownCsFlagBitsRejectedByLint) {
  VFixture fx;
  fx.run_client([&fx](ipc::Process self, svc::Rt /*rt*/) -> Co<void> {
    const std::string name = "tmp";
    auto bad = msg::cs::make_request(
        msg::kQueryName, naming::kDefaultContext,
        static_cast<std::uint16_t>(name.size()));
    bad.raw()[msg::cs::kOffCsFlags] = std::byte{0x80};  // undefined bit
    ipc::Segments segs;
    segs.read = std::as_bytes(std::span(name.data(), name.size()));
    const auto reply = co_await self.send(bad, fx.alpha_pid, segs);
    EXPECT_EQ(reply.reply_code(), ReplyCode::kBadArgs);
  });
  EXPECT_EQ(fx.dom.lint().counters().client_rejects, 1u);
  EXPECT_NE(
      fx.dom.lint().first_dump().find("unknown CSname header flag bits"),
      std::string::npos)
      << fx.dom.lint().first_dump();
}

TEST(CachedOpen, GenerationBytesWithoutFlagRejectedByLint) {
  VFixture fx;
  fx.run_client([&fx](ipc::Process self, svc::Rt /*rt*/) -> Co<void> {
    const std::string name = "tmp";
    auto bad = msg::cs::make_request(
        msg::kQueryName, naming::kDefaultContext,
        static_cast<std::uint16_t>(name.size()));
    bad.set_u32(msg::cs::kOffExpectedGen, 7);  // bytes set, flag clear
    ipc::Segments segs;
    segs.read = std::as_bytes(std::span(name.data(), name.size()));
    const auto reply = co_await self.send(bad, fx.alpha_pid, segs);
    EXPECT_EQ(reply.reply_code(), ReplyCode::kBadArgs);
  });
  EXPECT_EQ(fx.dom.lint().counters().client_rejects, 1u);
  EXPECT_NE(fx.dom.lint().first_dump().find(
                "expected-generation bytes set without the flag"),
            std::string::npos)
      << fx.dom.lint().first_dump();
}

// --- observability ----------------------------------------------------------------

TEST(CachedOpen, MetricsContextServesNamecacheCounters) {
  VFixture fx;
  servers::MetricsServer metrics_srv;
  const auto metrics_pid = fx.ws1.spawn(
      "metrics", [&](ipc::Process p) { return metrics_srv.run(p); });
  fx.prefixes.define("metrics",
                     {.target = {metrics_pid, naming::kDefaultContext}});
  fx.run_client([&fx](ipc::Process, svc::Rt rt) -> Co<void> {
    NameCache cache;
    rt.set_cache(&cache);
    // One miss, one hit, one stale refusal + fallback.
    co_await open_expect(rt, "usr/mann/naming.mss",
                         "Distributed name interpretation.");
    co_await open_expect(rt, "usr/mann/paper.mss", "ICDCS 1984.");
    EXPECT_EQ(co_await rt.create("usr/mann/churn.txt"), ReplyCode::kOk);
    co_await open_expect(rt, "usr/mann/naming.mss",
                         "Distributed name interpretation.");
    // Freeze the counters (detach the cache), then read them back through
    // the uniform name space, exactly as a remote monitor would.
    rt.set_cache(nullptr);
    const struct {
      const char* name;
      std::uint64_t expect;
    } counters[] = {
        {"[metrics]namecache/hits", cache.hits()},
        {"[metrics]namecache/misses", cache.misses()},
        {"[metrics]namecache/stale", cache.stale()},
        {"[metrics]namecache/fallbacks", cache.fallbacks()},
    };
    for (const auto& c : counters) {
      auto metric = co_await rt.open(c.name, kOpenRead);
      EXPECT_TRUE(metric.ok()) << c.name;
      if (!metric.ok()) continue;
      svc::File f = metric.take();
      auto bytes = co_await f.read_all();
      EXPECT_TRUE(bytes.ok()) << c.name;
      if (!bytes.ok()) continue;
      const std::string text(
          reinterpret_cast<const char*>(bytes.value().data()),
          bytes.value().size());
      EXPECT_EQ(std::strtoull(text.c_str(), nullptr, 10), c.expect)
          << c.name << " read \"" << text << "\"";
      (void)co_await f.close();
    }
    // And the registry snapshot agrees with the wire reads.
    const auto reg = fx.dom.metrics().value_text("namecache", "hits");
    EXPECT_TRUE(reg.has_value());
    if (reg.has_value()) {
      EXPECT_EQ(std::strtoull(reg->c_str(), nullptr, 10), cache.hits());
    }
  });
}

TEST(CachedOpen, WarmHitTraceShowsSingleHop) {
  VFixture fx;
  fx.dom.tracer().enable();
  fx.run_client([](ipc::Process, svc::Rt rt) -> Co<void> {
    NameCache cache;
    rt.set_cache(&cache);
    co_await open_expect(rt, "[alpha]usr/mann/naming.mss",
                         "Distributed name interpretation.");
    co_await open_expect(rt, "[alpha]usr/mann/paper.mss", "ICDCS 1984.");
    EXPECT_EQ(cache.hits(), 1u);
    rt.set_cache(nullptr);
  });

  // Collect the open-request roots in emission order: the cold resolution
  // first, the warm hit last.
  const auto& spans = fx.dom.tracer().spans();
  std::vector<const obs::Span*> roots;
  for (const auto& s : spans) {
    if (s.parent == 0 && s.category == "send" && s.name == "send open") {
      roots.push_back(&s);
    }
  }
  ASSERT_EQ(roots.size(), 2u);
  auto hops = [&](const obs::Span& root) {
    std::vector<const obs::Span*> out;
    for (const auto& s : spans) {
      if (s.trace_id == root.trace_id && s.category == "hop") {
        out.push_back(&s);
      }
    }
    return out;
  };
  // Cold: prefix server + file server — at least two server boundaries.
  EXPECT_GE(hops(*roots.front()).size(), 2u);
  // Warm: the whole resolution is ONE hop span on the final server.
  const auto warm_hops = hops(*roots.back());
  ASSERT_EQ(warm_hops.size(), 1u);
  EXPECT_EQ(warm_hops[0]->parent, roots.back()->id);
}

}  // namespace
}  // namespace v
