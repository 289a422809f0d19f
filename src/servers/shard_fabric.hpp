// The sharded context-prefix fabric (DESIGN.md 4m, PROTOCOL.md 14).
//
// One prefix-server team per workstation (paper section 6) serves one user;
// the ROADMAP's production day needs the GLOBAL prefix mapping — thousands
// of prefixes, hammered by thousands of hosts — and a single receptionist +
// worker team saturates at workers / prefix_processing.  Internames
// (PAPERS.md) argues the way out is partitioning the name space itself, and
// the non-anchored-naming work shows character-string spaces partition
// cleanly without a distinguished root.  This fabric does exactly that:
//
//   * the sorted prefix list is split into S consistent prefix ranges, one
//     ContextPrefixServer-derived team per range, each on its own host;
//   * clients learn the partition from a ShardMap (naming/shard_map.hpp)
//     fetched by multicasting msg::kFetchShardMap to the fabric's process
//     group — the DESIGNATED member (first live shard in index order)
//     answers with the current map and every other member stays silent,
//     the same one-speaker discipline as recovery probes, so the fetch
//     survives any crash without ever drawing two replies;
//   * every routed request quotes the shard's OWNERSHIP generation from the
//     map as its expected generation.  It changes only when a live shard's
//     range shrinks (or the shard restarts), so a map that routes a prefix
//     to a shard that no longer owns it is refused with kStaleContext by the
//     validated-caching check (PROTOCOL.md 11) — never answered wrongly —
//     while edits to a shard's table leave every client's map valid;
//   * membership churn (v::fault crash/restart schedules) triggers shard
//     HANDOFF: a coordinator agent replays the dead shard's bindings into
//     a successor through the ordinary AddContextName protocol, then
//     publishes a new map version.  Clients follow via kNoReply/kStaleContext
//     -> refetch, the same repair loop the paper's section 4 rebinding uses.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "naming/shard_map.hpp"
#include "servers/prefix_server.hpp"

namespace v::servers {

class ShardFabric;

/// One shard: a ContextPrefixServer team that additionally serves the
/// fabric's current shard map (msg::kFetchShardMap).
class ShardPrefixServer : public ContextPrefixServer {
 public:
  ShardPrefixServer(std::string label, ShardFabric* fabric,
                    naming::TeamConfig team)
      : ContextPrefixServer(std::move(label), /*register_service=*/false,
                            team),
        fabric_(fabric) {}

  /// The generation the shard map quotes for this shard.  Each incarnation
  /// starts from its fresh generation floor; the fabric advances it when the
  /// shard's range shrinks.  Table mutations leave it alone: whatever range
  /// a map assigns under this generation, the shard holds every binding in
  /// it and answers from its current table.
  [[nodiscard]] std::uint32_t ownership_generation() const noexcept {
    return ownership_generation_;
  }
  void set_ownership_generation(std::uint32_t gen) noexcept {
    ownership_generation_ = gen;
  }

 protected:
  sim::Co<void> on_start(ipc::Process& self) override;
  sim::Co<msg::Message> handle_custom(ipc::Process& self,
                                      ipc::Envelope& env) override;
  /// A shard serves only its default context, validated by ownership.
  [[nodiscard]] std::uint32_t validation_generation(
      naming::ContextId /*ctx*/) const override {
    return ownership_generation_;
  }

  /// Map fetches ride the express lane: a saturated shard's queue wait
  /// exceeds the fetch's group timeout, and a map nobody can fetch would
  /// wedge every router behind kTimeout refetch loops.
  [[nodiscard]] bool express_lane(const msg::Message& req) const override {
    return req.code() == msg::kFetchShardMap;
  }

 private:
  ShardFabric* fabric_;
  std::uint32_t ownership_generation_ = 0;
};

/// The fabric: owns the shard servers, their hosts, the authoritative map,
/// and the churn choreography.  Pre-run setup is install(); everything
/// after dom.run() starts goes through the protocol.
class ShardFabric {
 public:
  using Binding = std::pair<std::string, ContextPrefixServer::Entry>;

  struct Config {
    std::size_t shards = 4;
    naming::TeamConfig team{.workers = 4, .queue_cap = 64};
    ipc::GroupId group = 0xFAB0;  ///< fabric process group (map fetch)
    std::string host_stem = "shard";
  };

  ShardFabric(ipc::Domain& dom, Config cfg);

  /// Partition `bindings` into `cfg.shards` contiguous ranges of the
  /// sorted prefix list, install each range on its shard, and spawn the
  /// server teams (one host per shard).  Call once, before dom.run().
  void install(std::vector<Binding> bindings);

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] ipc::GroupId group() const noexcept { return cfg_.group; }
  [[nodiscard]] ipc::Host& host(std::size_t i) { return *shards_[i].host; }
  [[nodiscard]] ipc::ProcessId pid(std::size_t i) const {
    return shards_[i].pid;
  }
  [[nodiscard]] ShardPrefixServer& server(std::size_t i) {
    return *shards_[i].server;
  }
  [[nodiscard]] std::uint32_t map_version() const noexcept {
    return version_;
  }
  /// Total kBusy sheds across all shard incarnations.
  [[nodiscard]] std::uint64_t shed_count() const noexcept;

  /// Is `pid` the fabric member that answers map fetches right now?  The
  /// first live member in index order is designated; all other members
  /// stay SILENT on kFetchShardMap so a multicast draws one reply, not one
  /// per shard.
  [[nodiscard]] bool designated_responder(ipc::ProcessId pid) const;

  /// The current map: each published shard's entry carries its ownership
  /// generation as of this call, which is the value the expected-generation
  /// check compares against.  Content mutations (handoff adds, handback
  /// deletes, admin prefix edits) do not change it, so they never stale a
  /// client's map.  A shard whose handoff is still in flight stays
  /// published (requests to it fail fast with kNoReply and the client
  /// retries) so the map always covers the whole prefix space.
  [[nodiscard]] naming::ShardMap snapshot() const;

  // --- membership churn ----------------------------------------------------
  // Wire these to a v::fault schedule: plan.crash_at(t, fabric.host(i).id(),
  // [&]{ fabric.on_crash(i); }) and the restart twin.  The host itself is
  // already crashed/restarted by the plan when the callback runs.

  /// Shard `i`'s host died: start the handoff agent that replays its
  /// bindings into a successor shard and then publishes the new map.  A
  /// binding the successor refuses for good leaves the dead shard published
  /// (its range answers kNoReply until the restart) and counts a failure.
  void on_crash(std::size_t i);

  /// Shard `i`'s host is back: respawn the server (fresh incarnation, fresh
  /// ownership generation), advance the successor's ownership generation if
  /// it had absorbed the range, publish a map that returns the range, then
  /// retire the successor's copies.  A handoff still replaying is abandoned.
  void on_restart(std::size_t i);

  struct ChurnStats {
    std::uint64_t handoffs = 0;
    std::uint64_t handbacks = 0;
    double last_handoff_ms = 0;   ///< agent start -> map republished
    double last_handback_ms = 0;  ///< restart -> cleanup complete
    /// Handoff adds and handback deletes re-sent after a shed (kBusy) or a
    /// lost transaction (kNoReply / kTimeout).
    std::uint64_t replay_retries = 0;
    /// Handoffs given up because the successor refused a binding for good.
    std::uint64_t handoff_failures = 0;
    /// Handback deletes the successor refused for good (a stray copy stays
    /// in its table, outside every range a map routes to it).
    std::uint64_t handback_failures = 0;
  };
  [[nodiscard]] const ChurnStats& churn_stats() const noexcept {
    return churn_;
  }

 private:
  friend class ShardPrefixServer;

  struct Shard {
    std::unique_ptr<ShardPrefixServer> server;
    ipc::Host* host = nullptr;
    ipc::ProcessId pid;
    std::string lo;       ///< current inclusive lower bound
    std::string home_lo;  ///< lower bound of the shard's own range
    bool published = true;
    std::vector<Binding> home;  ///< the shard's own bindings
    std::size_t absorbed_by = 0;  ///< successor chosen at the last crash
    /// A handoff agent that sees this move was overtaken by a restart and
    /// abandons its work.
    std::uint64_t restarts = 0;
  };

  /// Successor for a dying shard: the published live shard preceding it in
  /// lo order, else the following one (which then inherits `lo`).
  [[nodiscard]] std::size_t successor_of(std::size_t i) const;
  void complete_handoff(std::size_t i, std::size_t succ, double took_ms);

  ipc::Domain& dom_;
  Config cfg_;
  std::vector<Shard> shards_;
  std::uint32_t version_ = 0;
  ChurnStats churn_;
};

}  // namespace v::servers
