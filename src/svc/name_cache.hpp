// Client-side validated resolution cache.
//
// The paper argues AGAINST client caching of name resolutions (section
// 2.2): "Caching the name in the client would introduce inconsistency
// problems and only benefit the few applications that reuse names."  The
// first version of this class implemented the cache naively so the claim
// could be measured — and the test suite demonstrated exactly the silent
// wrong answers the paper predicted.
//
// This version dissolves the objection with *verification on use*
// (DESIGN.md 4g).  Each entry maps the DIRECTORY part of a name to a
// generation-stamped binding:
//
//   dir -> { (server pid, context id), generation, chars consumed, origin }
//
// learned for free from the binding hint piggybacked on successful CSname
// replies (PROTOCOL.md 11).  A cached open goes straight to the final
// server carrying the expected generation; if ANY gated mutation has
// touched that context since, the server answers kStaleContext instead of
// interpreting, and the runtime transparently falls back to a full
// resolution.  Because generations are drawn from one domain-wide monotone
// sequence, a restarted server — or an impostor on a recycled pid — can
// never echo a stale generation back into validity.
//
// `origin` records the entry binding the resolution travelled through
// (normally the context prefix server's table context).  Whenever a newer
// generation is observed for an origin (e.g. the reply to this client's own
// AddContextName/DeleteContextName), every entry that depended on an older
// generation of that origin is dropped — so prefix-table edits invalidate
// the bindings they routed.  (A prefix edit made by ANOTHER client is
// detected lazily: the next resolution that travels through the prefix
// server re-observes its generation.  See DESIGN.md 4g for the residual.)
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <string>

#include "common/flat_map.hpp"
#include "ipc/kernel.hpp"
#include "naming/types.hpp"

namespace v::svc {

class NameCache {
 public:
  /// A validated directory binding: where to send, what generation to
  /// expect, and where the leaf starts in a name of this directory.
  struct Binding {
    naming::ContextPair target;      ///< final server + context
    std::uint32_t generation = 0;    ///< target context's gen when learned
    std::uint16_t consumed = 0;      ///< name bytes before the leaf
    ipc::BindingHint origin;         ///< entry binding the walk went through
  };

  explicit NameCache(std::size_t capacity = 64) : capacity_(capacity) {}

  /// Cached binding for a directory name, if present (refreshes LRU).
  std::optional<Binding> find(std::string_view dir) {
    auto it = entries_.find(dir);
    if (it == entries_.end()) {
      ++misses_;
      return std::nullopt;
    }
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second.position);
    return it->second.binding;
  }

  /// Remember `dir` -> `binding`, evicting the least-recently-used entry
  /// beyond capacity.
  void put(std::string_view dir, const Binding& binding) {
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

  /// Drop an entry whose binding was refused (kStaleContext /
  /// kInvalidContext / kNoReply).
  void erase(std::string_view dir) {
    auto it = entries_.find(dir);
    if (it == entries_.end()) return;
    ++invalidations_;
    drop_dependent(it->second.binding.origin);
    lru_.erase(it->second.position);
    entries_.erase(it);
  }

  /// Record an observed origin generation (from any hinted reply).  When it
  /// is NEWER than the last one seen for that (server, context) — the
  /// origin's table changed — drop every entry that was resolved through an
  /// older generation of it.  Most newer generations belong to contexts no
  /// entry was resolved through (every directory a create or remove
  /// touches), so the walk runs only while the origin has dependents.
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
        // Erasing the last dependent drops the count's slot; stop there.
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

  /// Counter hooks for the runtime: a kStaleContext refusal, and a
  /// transparent fallback to full resolution (any refused binding).
  void note_stale() noexcept { ++stale_; }
  void note_fallback() noexcept { ++fallbacks_; }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  [[nodiscard]] std::uint64_t invalidations() const noexcept {
    return invalidations_;
  }
  [[nodiscard]] std::uint64_t stale() const noexcept { return stale_; }
  [[nodiscard]] std::uint64_t fallbacks() const noexcept { return fallbacks_; }

 private:
  struct Entry {
    Binding binding;
    std::list<std::string>::iterator position;
  };
  /// (server pid, context id) of an origin, packed for the FlatMap.
  static std::uint64_t origin_key(const ipc::BindingHint& origin) noexcept {
    return (std::uint64_t{origin.server_pid} << 32) | origin.context_id;
  }

  /// Count one more / one fewer entry resolved through `origin`.
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
  // Both origin tables are probed on every hinted reply, hence flat.
  FlatMap<std::uint64_t, std::uint32_t> origins_;  ///< latest observed gens
  /// Entries per origin key; a key with no dependents has no slot.
  FlatMap<std::uint64_t, std::uint32_t> dependents_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t invalidations_ = 0;
  std::uint64_t stale_ = 0;
  std::uint64_t fallbacks_ = 0;
};

}  // namespace v::svc
