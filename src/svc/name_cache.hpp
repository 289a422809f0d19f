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
//
// Storage is one vector of at most `capacity` slots, searched linearly:
// every user keeps capacity <= 64, where a scan of contiguous slots is
// cheaper than any node-based index, and a warm find or an evicting put
// allocates nothing (DESIGN.md 4g).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

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

  explicit NameCache(std::size_t capacity = 64) : capacity_(capacity) {
    slots_.reserve(capacity);
  }

  /// Cached binding for a directory name, if present (refreshes LRU).
  std::optional<Binding> find(std::string_view dir) {
    Slot* slot = slot_of(dir);
    if (slot == nullptr) {
      ++misses_;
      return std::nullopt;
    }
    ++hits_;
    slot->tick = ++tick_;
    return slot->binding;
  }

  /// Remember `dir` -> `binding`, evicting the least-recently-used entry
  /// beyond capacity (into the same slot and key buffer).
  void put(std::string_view dir, const Binding& binding) {
    Slot* slot = slot_of(dir);
    if (slot == nullptr) {
      if (capacity_ == 0) return;
      slot = slots_.size() < capacity_
                 ? &slots_.emplace_back()
                 : &*std::min_element(slots_.begin(), slots_.end(),
                                      [](const Slot& a, const Slot& b) {
                                        return a.tick < b.tick;
                                      });
      slot->key.assign(dir);
    }
    slot->binding = binding;
    slot->tick = ++tick_;
  }

  /// Drop an entry whose binding was refused (kStaleContext /
  /// kInvalidContext / kNoReply).
  void erase(std::string_view dir) {
    if (Slot* slot = slot_of(dir)) drop(*slot);
  }

  /// Record an observed origin generation (from any hinted reply).  When it
  /// is NEWER than the last one seen for that (server, context) — the
  /// origin's table changed — drop every entry that was resolved through an
  /// older generation of it.
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
    for (std::size_t i = 0; i < slots_.size();) {
      const ipc::BindingHint& dep = slots_[i].binding.origin;
      if (dep.valid() && origin_key(dep) == key &&
          dep.generation < origin.generation) {
        drop(slots_[i]);  // the last slot moves into i: look at i again
      } else {
        ++i;
      }
    }
  }

  void clear() {
    slots_.clear();
    origins_.clear();
  }

  /// Counter hooks for the runtime: a kStaleContext refusal, and a
  /// transparent fallback to full resolution (any refused binding).
  void note_stale() noexcept { ++stale_; }
  void note_fallback() noexcept { ++fallbacks_; }

  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  [[nodiscard]] std::uint64_t invalidations() const noexcept {
    return invalidations_;
  }
  [[nodiscard]] std::uint64_t stale() const noexcept { return stale_; }
  [[nodiscard]] std::uint64_t fallbacks() const noexcept { return fallbacks_; }

 private:
  struct Slot {
    std::string key;
    Binding binding;
    std::uint64_t tick = 0;  ///< recency: larger = more recently used
  };
  /// (server pid, context id) of an origin, packed for the FlatMap.
  static std::uint64_t origin_key(const ipc::BindingHint& origin) noexcept {
    return (std::uint64_t{origin.server_pid} << 32) | origin.context_id;
  }

  Slot* slot_of(std::string_view dir) noexcept {
    for (Slot& slot : slots_) {
      if (slot.key == dir) return &slot;
    }
    return nullptr;
  }
  /// Invalidate one entry: the last slot takes its place.
  void drop(Slot& slot) {
    ++invalidations_;
    if (&slot != &slots_.back()) std::swap(slot, slots_.back());
    slots_.pop_back();
  }

  std::size_t capacity_;
  std::vector<Slot> slots_;
  std::uint64_t tick_ = 0;
  /// Latest observed generation per origin; probed on every hinted reply.
  FlatMap<std::uint64_t, std::uint32_t> origins_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t invalidations_ = 0;
  std::uint64_t stale_ = 0;
  std::uint64_t fallbacks_ = 0;
};

}  // namespace v::svc
