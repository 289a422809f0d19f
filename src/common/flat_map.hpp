// Open-addressing hash map for small-integer-keyed tables probed per message.
//
// Its users key on small integers and probe on every message: the kernel's
// tables (pid -> record, client -> transaction slot, service ->
// registration), the protocol lint's server/worker registry and
// outstanding-request ledger, the client name cache's per-origin tables,
// and the per-server request-counter handles.  The node-based std::map /
// std::unordered_map are a poor fit for that access pattern: every insert
// allocates, every lookup chases a pointer into cold memory.
//
// FlatMap stores slots contiguously with linear probing over a power-of-two
// capacity.  Lookups touch one cache line in the common case; inserts
// allocate only on growth.  Deliberately minimal:
//   - per-entry erase uses tombstones: probes walk through them, inserts
//     reuse the first one passed, and any rehash (growth or a same-capacity
//     compaction once deleted slots crowd the table) purges them all,
//   - no iteration (no user walks these tables, which is also what makes
//     the container swap invisible to deterministic runs — there is no
//     container order to leak into event order or a report),
//   - keys must convert to uint64_t (integers and scoped enums).
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

namespace v {

template <typename Key, typename Value>
class FlatMap {
 public:
  struct Slot {
    Key first;
    Value second;
  };
  using iterator = Slot*;
  using const_iterator = const Slot*;

  FlatMap() = default;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Sentinel returned by find() on miss; compare with `it == end()` just
  /// like the node-based maps this replaces.
  [[nodiscard]] iterator end() noexcept { return nullptr; }
  [[nodiscard]] const_iterator end() const noexcept { return nullptr; }

  [[nodiscard]] iterator find(const Key& key) noexcept {
    if (size_ == 0) return nullptr;
    for (std::size_t i = index_of(key);; i = (i + 1) & mask()) {
      if (states_[i] == kEmpty) return nullptr;
      if (states_[i] == kFull && slots_[i].first == key) return &slots_[i];
    }
  }
  [[nodiscard]] const_iterator find(const Key& key) const noexcept {
    return const_cast<FlatMap*>(this)->find(key);
  }

  /// Insert-or-find, like std::map::operator[]: default-constructs the
  /// value on first access.  A new key reuses the first tombstone passed on
  /// its probe path, so erase/insert churn does not stretch probes forever.
  Value& operator[](const Key& key) {
    if (size_ + tombs_ + 1 > (capacity() * 7) / 8) grow();
    std::size_t tomb = kNoSlot;
    for (std::size_t i = index_of(key);; i = (i + 1) & mask()) {
      if (states_[i] == kEmpty) {
        if (tomb != kNoSlot) {
          i = tomb;
          --tombs_;
        }
        states_[i] = kFull;
        ++size_;
        slots_[i].first = key;
        return slots_[i].second;
      }
      if (states_[i] == kTomb) {
        if (tomb == kNoSlot) tomb = i;
        continue;
      }
      if (slots_[i].first == key) return slots_[i].second;
    }
  }

  /// Erase by key: the slot becomes a tombstone (probes walk through it,
  /// the next insert on this path may reuse it).  Returns entries removed.
  std::size_t erase(const Key& key) noexcept {
    if (size_ == 0) return 0;
    for (std::size_t i = index_of(key);; i = (i + 1) & mask()) {
      if (states_[i] == kEmpty) return 0;
      if (states_[i] == kFull && slots_[i].first == key) {
        slots_[i] = Slot{};
        states_[i] = kTomb;
        --size_;
        ++tombs_;
        return 1;
      }
    }
  }

  /// Drop all entries, keeping capacity (crash-path wholesale reset).
  void clear() noexcept {
    for (std::size_t i = 0; i < states_.size(); ++i) {
      if (states_[i] == kFull) slots_[i] = Slot{};
      states_[i] = kEmpty;
    }
    size_ = 0;
    tombs_ = 0;
  }

  /// Pre-size so the first `n` inserts never rehash.
  void reserve(std::size_t n) {
    std::size_t cap = capacity();
    while (n + 1 > (cap * 7) / 8) cap = cap == 0 ? kMinCapacity : cap * 2;
    if (cap != capacity()) rehash(cap);
  }

 private:
  static constexpr std::size_t kMinCapacity = 16;
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
  static constexpr std::uint8_t kEmpty = 0;
  static constexpr std::uint8_t kFull = 1;
  static constexpr std::uint8_t kTomb = 2;

  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }
  [[nodiscard]] std::size_t mask() const noexcept { return capacity() - 1; }

  /// splitmix64 finalizer — scrambles low-entropy keys (sequential service
  /// ids, random-but-clustered pids) across the whole table.
  static std::uint64_t mix(std::uint64_t x) noexcept {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  [[nodiscard]] std::size_t index_of(const Key& key) const noexcept {
    return static_cast<std::size_t>(mix(static_cast<std::uint64_t>(key))) &
           mask();
  }

  void grow() {
    // Double only when live entries justify it; a table crowded mostly by
    // tombstones rehashes at the same capacity, which purges them.
    if (capacity() == 0) {
      rehash(kMinCapacity);
    } else if (size_ + 1 > (capacity() * 7) / 16) {
      rehash(capacity() * 2);
    } else {
      rehash(capacity());
    }
  }

  void rehash(std::size_t new_cap) {
    assert((new_cap & (new_cap - 1)) == 0 && new_cap > size_);
    std::vector<Slot> old_slots = std::move(slots_);
    std::vector<std::uint8_t> old_states = std::move(states_);
    slots_ = std::vector<Slot>(new_cap);  // value-init: no Value copies
    states_.assign(new_cap, 0);
    size_ = 0;
    tombs_ = 0;
    for (std::size_t i = 0; i < old_states.size(); ++i) {
      if (old_states[i] != kFull) continue;
      (*this)[old_slots[i].first] = std::move(old_slots[i].second);
    }
  }

  std::vector<Slot> slots_;
  std::vector<std::uint8_t> states_;
  std::size_t size_ = 0;
  std::size_t tombs_ = 0;
};

}  // namespace v
