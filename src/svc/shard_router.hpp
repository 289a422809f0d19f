// Client-side shard-map routing (PROTOCOL.md 14, DESIGN.md 4m).
//
// A ShardRouter wraps one program's Rt with knowledge of a sharded prefix
// fabric (servers/shard_fabric.hpp).  It keeps a cached ShardMap, routes
// every "[prefix]..." open one-hop to the owning shard — quoting the map's
// generation as the expected generation — and runs the repair loop when the
// fabric disagrees:
//
//   kStaleContext   the map aged past a fabric mutation: refetch, retry.
//                   The refused request had no effect; no wrong answer is
//                   possible (the whole point of the generation check).
//   kNoReply        the shard crashed mid-churn: refetch (the group fetch
//   kTimeout        doubles as a liveness probe), wait a beat for the
//                   handoff to progress, retry.
//   kBusy           the shard's team shed us: back off and retry.
//   anything else   authoritative (kNotFound...): surface it unchanged.
//
// Map fetches multicast msg::kFetchShardMap to the fabric's process group;
// the designated member answers and the rest stay silent (one-speaker group
// discipline), so fetching works as long as ANY shard survives and a stray
// second reply can never race this client's next transaction.
#pragma once

#include <cstdint>
#include <string_view>

#include "naming/shard_map.hpp"
#include "svc/runtime.hpp"

namespace v::svc {

class ShardRouter {
 public:
  struct Config {
    ipc::GroupId fabric_group = 0xFAB0;
  };

  struct Stats {
    std::uint64_t opens = 0;           ///< open() calls routed by the map
    std::uint64_t map_fetches = 0;     ///< kFetchShardMap multicasts
    std::uint64_t stale_retries = 0;   ///< kStaleContext -> refetch cycles
    std::uint64_t noreply_retries = 0; ///< kNoReply/kTimeout retry cycles
    std::uint64_t busy_retries = 0;    ///< kBusy backoff cycles
    std::uint64_t failures = 0;        ///< opens that exhausted attempts
  };

  ShardRouter(Rt& rt, Config cfg) noexcept : rt_(rt), cfg_(cfg) {}

  /// Open `name` through the shard map.  Names without the '['-prefix
  /// syntax fall back to the plain Rt path (current-context interpretation
  /// is not the fabric's business).
  [[nodiscard]] sim::Co<Result<Rt::OpenedFile>> open(std::string_view name,
                                                     std::uint16_t mode);

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] const naming::ShardMap& map() const noexcept { return map_; }
  /// Drop the cached map (next open refetches) — for tests.
  void invalidate() { map_ = naming::ShardMap{}; }

 private:
  /// Multicast-fetch the current map into map_.  False when no member
  /// answered or the bytes did not parse (map_ keeps its previous value).
  [[nodiscard]] sim::Co<bool> refetch_map();

  Rt& rt_;
  Config cfg_;
  naming::ShardMap map_;
  Stats stats_;
};

}  // namespace v::svc
