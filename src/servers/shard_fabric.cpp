#include "servers/shard_fabric.hpp"

#include <algorithm>

#include "common/annotate.hpp"
#include "svc/runtime.hpp"

namespace v::servers {

namespace {

/// Churn replay steps retry a shed (kBusy) or a lost transaction (kNoReply,
/// kTimeout) at this pace, up to this many tries per binding.
constexpr sim::SimDuration kChurnRetryDelay = 5 * sim::kMillisecond;
constexpr int kChurnAttempts = 64;

bool transient(ReplyCode rc) noexcept {
  return rc == ReplyCode::kBusy || rc == ReplyCode::kNoReply ||
         rc == ReplyCode::kTimeout;
}

}  // namespace

sim::Co<void> ShardPrefixServer::on_start(ipc::Process& self) {
  // Fresh incarnation, fresh ownership: the generation floor run() just drew
  // from the domain sequence.  A map entry quoting the previous
  // incarnation's ownership can never match it.
  ownership_generation_ = generation(naming::kDefaultContext);
  co_await ContextPrefixServer::on_start(self);
}

V_BORROWS_SPAN  // env outlives the handler: the worker holds it across the dispatch
sim::Co<msg::Message> ShardPrefixServer::handle_custom(ipc::Process& self,
                                                       ipc::Envelope& env) {
  if (env.request.code() != msg::kFetchShardMap) {
    co_return co_await ContextPrefixServer::handle_custom(self, env);
  }
  if (!fabric_->designated_responder(pid())) {
    // Group silence: the fetch was multicast to every member, but exactly
    // ONE live member answers — one reply per fetch, not a chorus; see
    // CsnhServer::handle_custom.
    co_return silent_discard();
  }
  metric_inc(self, "shardmap_fetches");
  const naming::ShardMap map = fabric_->snapshot();
  std::vector<std::byte> bytes;
  bytes.reserve(128);
  map.serialize(bytes);
  // Fabricating the map is priced like fabricating one directory record per
  // shard — it is the same kind of table walk the list-directory path does.
  co_await self.compute(self.params().descriptor_fabricate *
                        static_cast<sim::SimDuration>(map.shards.size()));
  const auto moved = co_await self.move_to(env, bytes);
  if (!moved.ok()) {
    // The sender gave up (group timeout) or died while we were busy: the
    // transaction is closed, so there is nobody to answer.
    co_return silent_discard();
  }
  msg::Message reply = msg::make_reply(ReplyCode::kOk);
  reply.set_u32(naming::wire::kOffShardMapVersion, map.version);
  reply.set_u16(naming::wire::kOffShardMapCount,
                static_cast<std::uint16_t>(map.shards.size()));
  reply.set_u16(naming::wire::kOffShardMapBytes,
                static_cast<std::uint16_t>(bytes.size()));
  co_return reply;
}

ShardFabric::ShardFabric(ipc::Domain& dom, Config cfg)
    : dom_(dom), cfg_(cfg) {}

void ShardFabric::install(std::vector<Binding> bindings) {
  std::sort(bindings.begin(), bindings.end(),
            [](const Binding& a, const Binding& b) {
              return a.first < b.first;
            });
  // Never more shards than prefixes: an empty range would repeat the next
  // range's lo and the map would not be well-formed.
  const std::size_t count =
      std::min(cfg_.shards == 0 ? std::size_t{1} : cfg_.shards,
               std::max<std::size_t>(bindings.size(), 1));
  shards_.resize(count);
  const std::size_t base = bindings.size() / count;
  const std::size_t extra = bindings.size() % count;
  std::size_t at = 0;
  for (std::size_t i = 0; i < count; ++i) {
    Shard& sh = shards_[i];
    const std::size_t take = base + (i < extra ? 1 : 0);
    sh.home.assign(bindings.begin() + static_cast<std::ptrdiff_t>(at),
                   bindings.begin() + static_cast<std::ptrdiff_t>(at + take));
    at += take;
    // First shard anchors the map at ""; later shards start at their first
    // owned prefix, so every prefix (even one never defined) routes.
    sh.home_lo = i == 0 ? std::string() : sh.home.front().first;
    sh.lo = sh.home_lo;
    const std::string label = cfg_.host_stem + std::to_string(i);
    sh.server = std::make_unique<ShardPrefixServer>(label, this, cfg_.team);
    sh.server->set_service_group(cfg_.group);
    for (const Binding& b : sh.home) sh.server->define(b.first, b.second);
    sh.host = &dom_.add_host(label);
    ShardPrefixServer* srv = sh.server.get();
    sh.pid = sh.host->spawn(
        label, [srv](ipc::Process p) { return srv->run(p); });
  }
  version_ = 1;
}

bool ShardFabric::designated_responder(ipc::ProcessId pid) const {
  // The first live member in index order answers map fetches; everyone
  // else stays silent.  Every member evaluates the same rule against the
  // same fabric state, so at any instant at most one member elects itself;
  // if the designated member dies before answering, the sender's group
  // timeout fires and the refetch finds the next one.
  for (const Shard& sh : shards_) {
    if (sh.host == nullptr || !sh.host->alive()) continue;
    if (!dom_.process_alive(sh.pid)) continue;
    return sh.pid == pid;
  }
  return false;
}

std::uint64_t ShardFabric::shed_count() const noexcept {
  std::uint64_t total = 0;
  for (const Shard& sh : shards_) {
    if (sh.server) total += sh.server->shed_count();
  }
  return total;
}

naming::ShardMap ShardFabric::snapshot() const {
  naming::ShardMap map;
  map.version = version_;
  map.shards.reserve(shards_.size());
  for (const Shard& sh : shards_) {
    if (!sh.published) continue;
    map.shards.push_back(naming::ShardMap::Shard{
        .lo = sh.lo,
        .server_pid = sh.pid.raw,
        .generation = sh.server->ownership_generation()});
  }
  std::sort(map.shards.begin(), map.shards.end(),
            [](const naming::ShardMap::Shard& a,
               const naming::ShardMap::Shard& b) { return a.lo < b.lo; });
  return map;
}

std::size_t ShardFabric::successor_of(std::size_t i) const {
  // install() creates shards in lo order, so index order IS lo order.
  // Prefer the preceding published live shard: removing `i` then extends
  // its range rightward over i's with no lo edit at all.
  for (std::size_t j = i; j-- > 0;) {
    if (shards_[j].published && shards_[j].host->alive()) return j;
  }
  // `i` held the "" anchor: the next published live shard inherits it.
  for (std::size_t j = i + 1; j < shards_.size(); ++j) {
    if (shards_[j].published && shards_[j].host->alive()) return j;
  }
  return i;  // nobody left alive; the map keeps the dead shard
}

void ShardFabric::on_crash(std::size_t i) {
  Shard& sh = shards_[i];
  const std::uint64_t restarts = sh.restarts;
  const std::size_t succ = successor_of(i);
  sh.absorbed_by = succ;
  if (succ == i) return;
  // The dead shard STAYS published until the successor holds every binding:
  // a map without it would route its range to a shard that answers
  // kNotFound — a wrong answer.  Published-but-dead only costs kNoReply
  // retries, which the router absorbs.  The successor's ownership
  // generation stays put: its range only grows, and no map routes the
  // grown part to it until the handoff publishes one.
  const sim::SimTime started = dom_.now();
  shards_[succ].host->spawn(
      "handoff" + std::to_string(i),
      // vlint: allow(coro-param-lifetime): spawn keeps the closure alive in ProcessRecord::body_keepalive for the process lifetime
      [this, i, succ, restarts, started](ipc::Process self) -> sim::Co<void> {
        svc::Rt rt(self,
                   svc::NameEnv{.prefix_server = shards_[succ].pid,
                                .current = {shards_[succ].pid,
                                            naming::kDefaultContext}});
        for (const Binding& b : shards_[i].home) {
          const auto& e = b.second;
          ReplyCode rc = ReplyCode::kNoReply;
          for (int attempt = 0; attempt < kChurnAttempts && transient(rc);
               ++attempt) {
            if (attempt > 0) {
              ++churn_.replay_retries;
              co_await self.delay(kChurnRetryDelay);
            }
            // A restart overtook the replay: the shard serves its own range
            // again and the handback owns the successor's copies.
            if (shards_[i].restarts != restarts) co_return;
            if (e.group != 0) {
              rc = co_await rt.add_group_prefix(b.first, e.group,
                                                e.logical_context);
            } else if (e.logical) {
              rc = co_await rt.add_logical_prefix(b.first, e.service,
                                                  e.logical_context);
            } else {
              rc = co_await rt.add_prefix(b.first, e.target);
            }
          }
          // kNameExists: an earlier attempt (or an earlier churn cycle)
          // already landed this binding.  Anything else lost it, so the dead
          // shard must not be retired.
          if (rc != ReplyCode::kOk && rc != ReplyCode::kNameExists) {
            ++churn_.handoff_failures;
            co_return;
          }
        }
        if (shards_[i].restarts != restarts) co_return;
        complete_handoff(i, succ, sim::to_ms(self.now() - started));
      });
}

void ShardFabric::complete_handoff(std::size_t i, std::size_t succ,
                                   double took_ms) {
  shards_[i].published = false;
  if (shards_[succ].lo > shards_[i].lo) shards_[succ].lo = shards_[i].lo;
  ++version_;
  ++churn_.handoffs;
  churn_.last_handoff_ms = took_ms;
}

void ShardFabric::on_restart(std::size_t i) {
  Shard& sh = shards_[i];
  if (!sh.host->alive()) sh.host->restart();
  ++sh.restarts;
  // Same server object, fresh incarnation: the prefix table persists
  // (durable storage) but the ownership generation is re-drawn, so every
  // map entry published before the crash now mismatches — stale maps are
  // refused, never wrongly served.
  ShardPrefixServer* srv = sh.server.get();
  const std::string label = cfg_.host_stem + std::to_string(i);
  sh.pid = sh.host->spawn(label,
                          [srv](ipc::Process p) { return srv->run(p); });
  const std::size_t succ = sh.absorbed_by;
  if (!sh.published) {
    // The successor's range shrinks back: maps that route the returning
    // range to it must be refused before its copies start to disappear.
    shards_[succ].server->set_ownership_generation(
        dom_.next_name_generation());
  }
  // Publish the restored partition FIRST, then retire the successor's
  // copies: in the window between, both shards can serve the range
  // (identical bindings), while the reverse order would leave a map whose
  // owner answers kNotFound.
  sh.published = true;
  sh.lo = sh.home_lo;
  shards_[succ].lo = shards_[succ].home_lo;
  ++version_;
  if (succ == i) return;  // nobody absorbed the range: nothing to retire
  const sim::SimTime started = dom_.now();
  sh.host->spawn(
      "handback" + std::to_string(i),
      // The agent runs on the restarted host, so a second crash kills it.
      // vlint: allow(coro-param-lifetime): spawn keeps the closure alive in ProcessRecord::body_keepalive for the process lifetime
      [this, i, succ, started](ipc::Process self) -> sim::Co<void> {
        svc::Rt rt(self,
                   svc::NameEnv{.prefix_server = shards_[succ].pid,
                                .current = {shards_[succ].pid,
                                            naming::kDefaultContext}});
        for (const Binding& b : shards_[i].home) {
          ReplyCode rc = ReplyCode::kNoReply;
          for (int attempt = 0; attempt < kChurnAttempts && transient(rc);
               ++attempt) {
            if (attempt > 0) {
              ++churn_.replay_retries;
              co_await self.delay(kChurnRetryDelay);
            }
            rc = co_await rt.delete_prefix(b.first);
          }
          // kNotFound: the handoff never got this far, or an earlier
          // attempt already deleted it.  A refused delete only leaves a
          // stray copy outside every range a map routes to the successor.
          if (rc != ReplyCode::kOk && rc != ReplyCode::kNotFound) {
            ++churn_.handback_failures;
          }
        }
        ++churn_.handbacks;
        churn_.last_handback_ms = sim::to_ms(self.now() - started);
      });
}

}  // namespace v::servers
