// Tests for the client name cache (the paper-section-2.2 ablation): the
// mechanics of hit/miss/LRU, the latency benefit under reuse, the graceful
// recovery from detectable staleness, and — since bindings are generation
// validated — the DETECTION of the reused-context-id hazard that used to
// produce silent wrong answers.
#include <gtest/gtest.h>

#include <list>
#include <map>
#include <random>

#include "common/flat_map.hpp"
#include "naming/protocol.hpp"
#include "svc/name_cache.hpp"
#include "v_fixture.hpp"

namespace v {
namespace {

using naming::wire::kOpenRead;
using sim::Co;
using sim::kMillisecond;
using svc::NameCache;
using test::VFixture;

NameCache::Binding binding(naming::ContextPair target,
                           std::uint32_t generation = 1,
                           std::uint16_t consumed = 0) {
  return NameCache::Binding{target, generation, consumed, {}};
}

// --- unit mechanics -------------------------------------------------------------

TEST(NameCacheUnit, HitMissAndCounters) {
  NameCache cache(8);
  const naming::ContextPair target{ipc::ProcessId::make(1, 2), 7};
  EXPECT_FALSE(cache.find("usr/mann").has_value());
  cache.put("usr/mann", binding(target, 42, 9));
  auto hit = cache.find("usr/mann");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->target, target);
  EXPECT_EQ(hit->generation, 42u);
  EXPECT_EQ(hit->consumed, 9u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(NameCacheUnit, LruEvictionAtCapacity) {
  NameCache cache(3);
  const auto t = binding({ipc::ProcessId::make(1, 1), 0});
  cache.put("a", t);
  cache.put("b", t);
  cache.put("c", t);
  (void)cache.find("a");  // refresh "a"
  cache.put("d", t);      // evicts "b" (least recently used)
  EXPECT_TRUE(cache.find("a").has_value());
  EXPECT_FALSE(cache.find("b").has_value());
  EXPECT_TRUE(cache.find("c").has_value());
  EXPECT_TRUE(cache.find("d").has_value());
  EXPECT_EQ(cache.size(), 3u);
}

TEST(NameCacheUnit, EraseCountsInvalidations) {
  NameCache cache(4);
  cache.put("x", binding({ipc::ProcessId::make(1, 1), 0}));
  cache.erase("x");
  cache.erase("x");  // second erase of a missing entry is a no-op
  EXPECT_EQ(cache.invalidations(), 1u);
  EXPECT_FALSE(cache.find("x").has_value());
}

TEST(NameCacheUnit, NewerOriginGenerationSweepsDependents) {
  NameCache cache(8);
  const ipc::BindingHint prefix_gen5{/*server_pid=*/77, /*context_id=*/0,
                                     /*generation=*/5, /*consumed=*/0};
  auto via_prefix = binding({ipc::ProcessId::make(1, 2), 3}, 10, 7);
  via_prefix.origin = prefix_gen5;
  cache.put("[home]src", via_prefix);
  cache.put("usr/mann", binding({ipc::ProcessId::make(1, 2), 4}, 11, 9));

  // Observing the same generation again changes nothing.
  cache.observe_origin(prefix_gen5);
  EXPECT_EQ(cache.size(), 2u);

  // A newer generation of the prefix table drops the entry that was
  // resolved through it — and only that one.
  cache.observe_origin(ipc::BindingHint{77, 0, 6, 0});
  EXPECT_FALSE(cache.find("[home]src").has_value());
  EXPECT_TRUE(cache.find("usr/mann").has_value());
  EXPECT_EQ(cache.invalidations(), 1u);
}

NameCache::Binding via(const ipc::BindingHint& origin,
                       std::uint32_t context = 3) {
  auto b = binding({ipc::ProcessId::make(1, 2), context}, 10, 7);
  b.origin = origin;
  return b;
}

TEST(NameCacheUnit, OriginWithoutDependentsDropsNothing) {
  const ipc::BindingHint prefix{77, 0, 5, 0};
  const ipc::BindingHint other{88, 0, 5, 0};

  // The only dependent was evicted.
  NameCache evicted(1);
  evicted.put("a", via(prefix));
  evicted.put("b", binding({ipc::ProcessId::make(1, 2), 4}));
  evicted.observe_origin(ipc::BindingHint{77, 0, 6, 0});
  EXPECT_TRUE(evicted.find("b").has_value());
  EXPECT_EQ(evicted.invalidations(), 0u);

  // The only dependent was erased.
  NameCache erased(4);
  erased.put("a", via(prefix));
  erased.erase("a");
  erased.put("b", binding({ipc::ProcessId::make(1, 2), 4}));
  erased.observe_origin(ipc::BindingHint{77, 0, 6, 0});
  EXPECT_EQ(erased.size(), 1u);
  EXPECT_EQ(erased.invalidations(), 1u);  // the erase, nothing more

  // The only dependent was overwritten with a different origin: the old
  // origin drops nothing, the new one still sweeps it.
  NameCache rebound(4);
  rebound.put("a", via(prefix));
  rebound.put("a", via(other));
  rebound.observe_origin(ipc::BindingHint{77, 0, 6, 0});
  EXPECT_TRUE(rebound.find("a").has_value());
  EXPECT_EQ(rebound.invalidations(), 0u);
  rebound.observe_origin(ipc::BindingHint{88, 0, 6, 0});
  EXPECT_FALSE(rebound.find("a").has_value());
  EXPECT_EQ(rebound.invalidations(), 1u);
}

TEST(NameCacheUnit, SweepDropsExactlyTheOlderDependents) {
  NameCache cache(4);
  const ipc::BindingHint gen8{77, 0, 8, 0};
  const ipc::BindingHint gen9{77, 0, 9, 0};
  cache.put("evicted", via(gen8, 1));
  cache.put("plain", binding({ipc::ProcessId::make(1, 2), 4}));
  cache.put("other", via(ipc::BindingHint{88, 0, 1, 0}, 5));
  cache.put("old", via(gen8, 2));
  cache.put("new", via(gen9, 3));  // evicts "evicted"
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.invalidations(), 0u);  // eviction is not invalidation

  // Generation 9 drops the generation-8 dependent only.
  cache.observe_origin(gen9);
  EXPECT_FALSE(cache.find("old").has_value());
  EXPECT_FALSE(cache.find("evicted").has_value());
  EXPECT_TRUE(cache.find("new").has_value());
  EXPECT_EQ(cache.invalidations(), 1u);

  // The remaining dependent is still counted: generation 10 drops it.
  cache.observe_origin(ipc::BindingHint{77, 0, 10, 0});
  EXPECT_FALSE(cache.find("new").has_value());
  EXPECT_TRUE(cache.find("plain").has_value());
  EXPECT_TRUE(cache.find("other").has_value());
  EXPECT_EQ(cache.invalidations(), 2u);

  // After clear() the counts start over with the entries.
  cache.clear();
  cache.put("again", via(gen8));
  cache.observe_origin(gen9);
  EXPECT_FALSE(cache.find("again").has_value());
  EXPECT_EQ(cache.invalidations(), 3u);
}

// --- differential: the slot table against the map + list it replaced ------------

/// The previous NameCache storage, kept verbatim as the oracle: a string-
/// keyed std::map, a std::list LRU, and per-origin dependent counts that
/// let observe_origin skip origins nothing was resolved through.
class MapListCache {
 public:
  explicit MapListCache(std::size_t capacity) : capacity_(capacity) {}

  std::optional<NameCache::Binding> find(std::string_view dir) {
    auto it = entries_.find(dir);
    if (it == entries_.end()) {
      ++misses_;
      return std::nullopt;
    }
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second.position);
    return it->second.binding;
  }

  void put(std::string_view dir, const NameCache::Binding& binding) {
    add_dependent(binding.origin);
    auto it = entries_.find(dir);
    if (it != entries_.end()) {
      drop_dependent(it->second.binding.origin);
      it->second.binding = binding;
      lru_.splice(lru_.begin(), lru_, it->second.position);
      return;
    }
    lru_.emplace_front(dir);
    entries_.emplace(std::string(dir), Entry{binding, lru_.begin()});
    if (entries_.size() > capacity_) {
      auto victim = entries_.find(lru_.back());
      drop_dependent(victim->second.binding.origin);
      entries_.erase(victim);
      lru_.pop_back();
    }
  }

  void erase(std::string_view dir) {
    auto it = entries_.find(dir);
    if (it == entries_.end()) return;
    ++invalidations_;
    drop_dependent(it->second.binding.origin);
    lru_.erase(it->second.position);
    entries_.erase(it);
  }

  void observe_origin(const ipc::BindingHint& origin) {
    if (!origin.valid()) return;
    const std::uint64_t key = origin_key(origin);
    if (const auto seen = origins_.find(key); seen == origins_.end()) {
      origins_[key] = origin.generation;
    } else if (origin.generation <= seen->second) {
      return;
    } else {
      seen->second = origin.generation;
    }
    const auto deps = dependents_.find(key);
    if (deps == dependents_.end()) return;
    for (auto entry = entries_.begin(); entry != entries_.end();) {
      const ipc::BindingHint& dep = entry->second.binding.origin;
      if (dep.valid() && origin_key(dep) == key &&
          dep.generation < origin.generation) {
        ++invalidations_;
        lru_.erase(entry->second.position);
        entry = entries_.erase(entry);
        if (--deps->second == 0) {
          dependents_.erase(key);
          return;
        }
      } else {
        ++entry;
      }
    }
  }

  void clear() {
    entries_.clear();
    lru_.clear();
    origins_.clear();
    dependents_.clear();
  }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  [[nodiscard]] std::uint64_t invalidations() const noexcept {
    return invalidations_;
  }

 private:
  struct Entry {
    NameCache::Binding binding;
    std::list<std::string>::iterator position;
  };
  static std::uint64_t origin_key(const ipc::BindingHint& origin) noexcept {
    return (std::uint64_t{origin.server_pid} << 32) | origin.context_id;
  }
  void add_dependent(const ipc::BindingHint& origin) {
    if (origin.valid()) ++dependents_[origin_key(origin)];
  }
  void drop_dependent(const ipc::BindingHint& origin) {
    if (!origin.valid()) return;
    const std::uint64_t key = origin_key(origin);
    if (--dependents_[key] == 0) dependents_.erase(key);
  }

  std::size_t capacity_;
  std::map<std::string, Entry, std::less<>> entries_;
  std::list<std::string> lru_;
  FlatMap<std::uint64_t, std::uint32_t> origins_;
  FlatMap<std::uint64_t, std::uint32_t> dependents_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t invalidations_ = 0;
};

bool same(const std::optional<NameCache::Binding>& a,
          const std::optional<NameCache::Binding>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a) return true;
  return a->target == b->target && a->generation == b->generation &&
         a->consumed == b->consumed &&
         a->origin.server_pid == b->origin.server_pid &&
         a->origin.context_id == b->origin.context_id &&
         a->origin.generation == b->origin.generation &&
         a->origin.consumed == b->origin.consumed;
}

TEST(NameCacheUnit, SlotTableMatchesMapListOracle) {
  // Short keys and ones past the small-string buffer; origins on two
  // servers plus "no origin", over a few generations so sweeps both hit
  // and miss.
  const std::vector<std::string> keys = {
      "a",   "b",   "[home]", "usr/mann", "[p3]d17", "usr/mann/proj/deeper",
      "bin", "tmp", "tmp/x/y/z/longer-than-sso"};
  for (const std::size_t capacity : {0u, 1u, 3u, 64u}) {
    for (std::uint32_t seed = 1; seed <= 8; ++seed) {
      SCOPED_TRACE(::testing::Message()
                   << "capacity " << capacity << " seed " << seed);
      std::mt19937 rng(seed);
      auto pick = [&rng](std::size_t n) {
        return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
      };
      auto origin = [&] {
        const std::uint32_t server = static_cast<std::uint32_t>(pick(3));
        return ipc::BindingHint{server == 0 ? 0u : 70u + server,
                                static_cast<std::uint32_t>(pick(2)),
                                static_cast<std::uint32_t>(1 + pick(6)), 0};
      };
      NameCache cache(capacity);
      MapListCache oracle(capacity);
      for (int step = 0; step < 2'000; ++step) {
        const std::string& key = keys[pick(keys.size())];
        const std::size_t op = pick(100);
        if (op < 35) {
          const auto server = static_cast<std::uint16_t>(1 + pick(4));
          const NameCache::Binding b{
              {ipc::ProcessId::make(1, server),
               static_cast<naming::ContextId>(pick(16))},
              static_cast<std::uint32_t>(pick(50)),
              static_cast<std::uint16_t>(pick(30)), origin()};
          cache.put(key, b);
          oracle.put(key, b);
        } else if (op < 75) {
          const auto got = cache.find(key);
          const auto want = oracle.find(key);
          EXPECT_TRUE(same(got, want)) << "find '" << key << "' step " << step;
        } else if (op < 85) {
          cache.erase(key);
          oracle.erase(key);
        } else if (op < 99) {
          const ipc::BindingHint seen = origin();
          cache.observe_origin(seen);
          oracle.observe_origin(seen);
        } else {
          cache.clear();
          oracle.clear();
        }
        ASSERT_EQ(cache.size(), oracle.size()) << "step " << step;
        ASSERT_EQ(cache.hits(), oracle.hits()) << "step " << step;
        ASSERT_EQ(cache.misses(), oracle.misses()) << "step " << step;
        ASSERT_EQ(cache.invalidations(), oracle.invalidations())
            << "step " << step;
      }
    }
  }
}

// --- behaviour through the protocol ---------------------------------------------

TEST(NameCacheRt, ReusedDirectoryHitsSkipInterpretation) {
  VFixture fx;
  fx.run_client([](ipc::Process self, svc::Rt rt) -> Co<void> {
    NameCache cache;
    // First open resolves the full path and populates the cache.
    auto t0 = self.now();
    auto first = co_await rt.open_cached(cache, "usr/mann/naming.mss",
                                         kOpenRead);
    const auto cold = self.now() - t0;
    EXPECT_TRUE(first.ok());
    if (first.ok()) {
      svc::File f = first.take();
      EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
    }
    // Second open of a sibling hits the cache: only the leaf travels.
    t0 = self.now();
    auto second = co_await rt.open_cached(cache, "usr/mann/paper.mss",
                                          kOpenRead);
    const auto warm = self.now() - t0;
    EXPECT_TRUE(second.ok());
    if (second.ok()) {
      svc::File f = second.take();
      EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
    }
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.stale(), 0u);  // generation still current: validated hit
    EXPECT_LT(warm, cold);         // fewer components interpreted
  });
}

TEST(NameCacheRt, WorksAcrossPrefixesAndLinks) {
  VFixture fx;
  fx.run_client([&fx](ipc::Process, svc::Rt rt) -> Co<void> {
    NameCache cache;
    // Through the prefix server AND a cross-server link: the cache ends up
    // holding beta's context although the name names alpha's prefix.
    auto first = co_await rt.open_cached(
        cache, "[home]proj/readme", kOpenRead);
    EXPECT_TRUE(first.ok());
    if (first.ok()) {
      svc::File f = first.take();
      EXPECT_EQ(f.server(), fx.beta_pid);
      EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
    }
    auto again = co_await rt.open_cached(
        cache, "[home]proj/readme", kOpenRead);
    EXPECT_TRUE(again.ok());
    if (again.ok()) {
      svc::File f = again.take();
      EXPECT_EQ(f.server(), fx.beta_pid);  // straight to beta this time
      EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
    }
    EXPECT_EQ(cache.hits(), 1u);
  });
}

TEST(NameCacheRt, DeadServerEntryInvalidatesAndRecovers) {
  VFixture fx;
  fx.dom.loop().schedule_at(50 * kMillisecond, [&fx] { fx.fs2.crash(); });
  fx.run_client([&fx](ipc::Process self, svc::Rt rt) -> Co<void> {
    NameCache cache;
    auto first = co_await rt.open_cached(cache, "[beta]pub/readme",
                                         kOpenRead);
    EXPECT_TRUE(first.ok());
    if (first.ok()) {
      svc::File f = first.take();
      EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
    }
    co_await self.delay(100 * kMillisecond);  // beta dies
    // The cached entry points at the dead beta: detectably stale
    // (kNoReply), invalidated, and the full walk reports the truth.
    auto second = co_await rt.open_cached(cache, "[beta]pub/readme",
                                          kOpenRead);
    EXPECT_FALSE(second.ok());
    EXPECT_EQ(cache.invalidations(), 1u);
    EXPECT_EQ(cache.fallbacks(), 1u);
    EXPECT_EQ(cache.size(), 0u);
  });
}

TEST(NameCacheRt, ReusedContextIdDetectedByGeneration) {
  // THE inconsistency of paper section 2.2: a restarted server hands out
  // the same context ids for a DIFFERENT directory tree.  The unvalidated
  // cache served the impostor's bytes with no error anywhere; with
  // generation-stamped bindings the impostor's contexts carry generations
  // from a fresh domain-wide floor, so the cached open is REFUSED with
  // kStaleContext instead of being misinterpreted.
  VFixture fx;
  servers::FileServer impostor("alpha-v2", servers::DiskModel::kMemory,
                               /*register_service=*/false);
  // Same shape, different content: inode/context ids coincide with the
  // original alpha's because allocation is deterministic.
  impostor.put_file("usr/mann/naming.mss", "IMPOSTOR CONTENT");
  impostor.put_file("usr/mann/paper.mss", "IMPOSTOR CONTENT");
  ipc::ProcessId impostor_pid;

  fx.run_client([&](ipc::Process self, svc::Rt rt) -> Co<void> {
    NameCache cache;
    auto first = co_await rt.open_cached(cache, "usr/mann/naming.mss",
                                         kOpenRead);
    EXPECT_TRUE(first.ok());
    if (first.ok()) {
      svc::File f = first.take();
      EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
    }
    // alpha's host crashes; a different file server reappears there.  To
    // model pid reuse (spatially unique, NOT unique in time — section
    // 4.1), the client's cache entry is rewritten to the impostor's pid,
    // keeping the context id and generation it learned from the original.
    fx.fs1.crash();
    fx.fs1.restart();
    impostor_pid = fx.fs1.spawn(
        "alpha-v2", [&](ipc::Process p) { return impostor.run(p); });
    co_await self.delay(kMillisecond);
    auto stale = cache.find("usr/mann");
    EXPECT_TRUE(stale.has_value());
    if (!stale.has_value()) co_return;
    auto rewritten = *stale;
    rewritten.target.server = impostor_pid;
    cache.put("usr/mann", rewritten);

    // The impostor holds a valid context with the SAME id, but its
    // generation comes from a fresh incarnation floor: the cached open is
    // refused (kStaleContext), the entry dropped, and the fallback walk —
    // aimed at the dead original server — reports failure loudly instead
    // of handing back the impostor's bytes.
    auto refused = co_await rt.open_cached(cache, "usr/mann/naming.mss",
                                           kOpenRead);
    EXPECT_FALSE(refused.ok());
    EXPECT_EQ(cache.stale(), 1u);
    EXPECT_EQ(cache.fallbacks(), 1u);
    EXPECT_EQ(cache.size(), 0u);

    // Once the client legitimately adopts the new server as its current
    // context, resolution works and the cache re-learns a binding under
    // the impostor's own generation — subsequent hits validate cleanly.
    rt.set_current({impostor_pid, naming::kDefaultContext});
    auto adopted = co_await rt.open_cached(cache, "usr/mann/naming.mss",
                                           kOpenRead);
    EXPECT_TRUE(adopted.ok());
    if (!adopted.ok()) co_return;
    svc::File f = adopted.take();
    auto bytes = co_await f.read_all();
    EXPECT_TRUE(bytes.ok());
    if (bytes.ok()) {
      EXPECT_EQ(std::string(
                    reinterpret_cast<const char*>(bytes.value().data()),
                    bytes.value().size()),
                "IMPOSTOR CONTENT");
    }
    EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
    auto warm = co_await rt.open_cached(cache, "usr/mann/paper.mss",
                                        kOpenRead);
    EXPECT_TRUE(warm.ok());
    if (warm.ok()) {
      svc::File g = warm.take();
      EXPECT_EQ(co_await g.close(), ReplyCode::kOk);
    }
    // Three hits: the manual lookup, the refused open, the validated warm
    // open of the sibling.  Exactly one refusal ever happened.
    EXPECT_EQ(cache.hits(), 3u);
    EXPECT_EQ(cache.stale(), 1u);
  });
}

TEST(NameCacheRt, DirectoryOpenThroughCachedParentKeepsItsBinding) {
  VFixture fx;
  fx.alpha.mkdirs("usr/mann/sub");
  fx.run_client([](ipc::Process, svc::Rt rt) -> Co<void> {
    NameCache cache;
    rt.set_cache(&cache);
    auto first = co_await rt.open("usr/mann/naming.mss", kOpenRead);
    EXPECT_TRUE(first.ok());
    if (first.ok()) {
      svc::File f = first.take();
      EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
    }
    // Listing "usr/mann/sub" hits the "usr/mann" binding, and the server
    // walks INTO sub: the reply's hint binds sub, past the leaf boundary.
    // It must not overwrite the parent's binding.
    auto listed = co_await rt.list_context("usr/mann/sub");
    EXPECT_TRUE(listed.ok());
    auto sibling = co_await rt.open("usr/mann/paper.mss", kOpenRead);
    EXPECT_TRUE(sibling.ok()) << static_cast<int>(sibling.code());
    if (sibling.ok()) {
      svc::File f = sibling.take();
      EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
    }
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(cache.stale(), 0u);
  });
}

TEST(NameCacheRt, CurrentContextNamesAreNotCached) {
  VFixture fx;
  fx.run_client([](ipc::Process, svc::Rt rt) -> Co<void> {
    NameCache cache;
    EXPECT_EQ(co_await rt.change_context("usr/mann"), ReplyCode::kOk);
    auto opened = co_await rt.open_cached(cache, "naming.mss", kOpenRead);
    EXPECT_TRUE(opened.ok());
    if (opened.ok()) {
      svc::File f = opened.take();
      EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
    }
    EXPECT_EQ(cache.size(), 0u);  // single-component names: nothing to cache
  });
}

}  // namespace
}  // namespace v
