// The shard map: how a partitioned prefix name space is described to
// clients (PROTOCOL.md 14, DESIGN.md 4m).
//
// The global prefix table is partitioned into CONSISTENT PREFIX RANGES:
// shard i owns every prefix p with lo_i <= p < lo_{i+1} (lexicographic,
// last shard open-ended, first lo always "").  The map is the list of
// (lo, server-pid, generation) triples plus a version counter; routing a
// prefix is one upper-bound probe.
//
// The generation field is what makes a stale map SAFE rather than merely
// detectable-later: it is the shard's OWNERSHIP generation at publish time,
// and clients quote it as the expected generation of every request they
// route with the map (the validated-caching check, PROTOCOL.md 11).  It is drawn from
// the domain-wide generation sequence, fresh for every server incarnation,
// and advanced only when a live shard's range shrinks — before the first
// binding leaves it.  So any map that routes a prefix to a shard that no
// longer holds it is refused with kStaleContext before a single component
// is interpreted, and a wrong answer from a stale map is structurally
// impossible; the client refetches and retries (never silently wrong, paper
// section 2.2's lesson applied to the map itself).  Edits to a shard's
// table — handoff adds, handback deletes, admin prefix changes — leave the
// ownership generation alone: the shard answers them from its current
// table, so they cost clients no refetch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace v::naming {

/// Reply wire layout of msg::kFetchShardMap (the map bytes themselves ride
/// a MoveTo into the client's write segment; see PROTOCOL.md 14):
namespace wire {
inline constexpr std::size_t kOffShardMapVersion = 12;  ///< u32
inline constexpr std::size_t kOffShardMapCount = 16;    ///< u16 shards
inline constexpr std::size_t kOffShardMapBytes = 18;    ///< u16 serialized
}  // namespace wire

struct ShardMap {
  struct Shard {
    std::string lo;            ///< inclusive lower bound of the owned range
    std::uint32_t server_pid = 0;
    std::uint32_t generation = 0;  ///< shard's ownership generation
  };

  std::uint32_t version = 0;
  std::vector<Shard> shards;  ///< sorted by lo; shards[0].lo == ""

  /// Serialized size bound: count is a u16 and each lo is a short prefix.
  static constexpr std::size_t kMaxBytes = 4096;
  static constexpr std::uint32_t kMagic = 0x56534d31;  // "VSM1"

  [[nodiscard]] bool empty() const noexcept { return shards.empty(); }

  /// Structural validity: non-empty, first lo "", sorted strictly by lo.
  [[nodiscard]] bool well_formed() const noexcept;

  /// Index of the shard owning `prefix` (the last shard whose lo is <=
  /// prefix).  Requires well_formed().
  [[nodiscard]] std::size_t route(std::string_view prefix) const noexcept;

  /// Append the wire form to `out`: header (magic, version, count) then
  /// per-shard (pid, generation, lo-length, lo bytes), little-endian.
  void serialize(std::vector<std::byte>& out) const;

  /// Parse a buffer previously filled by serialize().  The encoding is
  /// self-delimiting (the header carries the count), so trailing garbage —
  /// e.g. remnants of a longer map a later group member overwrote — is
  /// ignored.  Returns false (leaving `out` untouched) unless the bytes
  /// decode to a well-formed map.
  [[nodiscard]] static bool parse(std::span<const std::byte> in,
                                  ShardMap& out);
};

}  // namespace v::naming
