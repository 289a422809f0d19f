#include "sim/event_loop.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <utility>

#include "common/log.hpp"
#include "sim/task.hpp"
#include "common/annotate.hpp"

namespace v::sim {

namespace {

/// VLOG bridge: every log line is stamped with the simulated time and pid
/// of whatever the ambient context says is running right now.
log_detail::Context ambient_log_context() {
  log_detail::Context ctx;
  const AmbientContext& amb = ambient();
  if (amb.loop != nullptr) {
    ctx.has_time = true;
    ctx.time_ns = amb.loop->now();
  }
  if (amb.fiber != nullptr) ctx.pid = amb.fiber->pid;
  return ctx;
}

/// splitmix64 finalizer: a cheap, high-quality 64-bit mix.  Used to turn
/// (fuzz seed, sequence number) into a tie key so simultaneous events fire
/// in a seed-determined permutation of their scheduling order.
V_HOT_PATH
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

EventLoop::EventLoop() {
  log_detail::set_context_provider(&ambient_log_context);
  for (auto& level : slots_) {
    for (std::uint32_t& head : level) head = kNilNode;
  }
}

V_HOT_PATH
std::uint64_t EventLoop::tie_key(std::uint64_t seq) const noexcept {
  return fuzz_ ? mix64(fuzz_seed_ ^ mix64(seq)) : seq;
}

V_HOT_PATH
std::uint32_t EventLoop::alloc_node(Action&& action) {
  std::uint32_t idx = free_head_;
  if (idx != kNilNode) {
    free_head_ = node(idx).next;
  } else {
    idx = slab_used_++;
    if ((idx >> kChunkBits) == chunks_.size()) {
      // Slab chunk growth: rare and amortized, the steady state reuses
      // freed nodes.
      chunks_.push_back(  // vlint: allow(hot-path-alloc): cold growth branch
          std::make_unique<Node[]>(std::size_t{1} << kChunkBits));
    }
  }
  node(idx).action = std::move(action);
  return idx;
}

V_HOT_PATH
void EventLoop::free_node(std::uint32_t idx) noexcept {
  node(idx).next = free_head_;
  free_head_ = idx;
}

V_HOT_PATH
void EventLoop::push_due(const Key& key) {
  due_.push_back(key);
  std::push_heap(due_.begin(), due_.end(), Later{});
}

V_HOT_PATH
EventLoop::Key EventLoop::pop_due() {
  std::pop_heap(due_.begin(), due_.end(), Later{});
  const Key key = due_.back();
  due_.pop_back();
  return key;
}

V_HOT_PATH
void EventLoop::wheel_insert(const Key& key) {
  const std::uint64_t tick = tick_of(key.at);
  const std::uint64_t delta = tick ^ cur_tick_;
  if ((delta >> kWheelBits) != 0) {
    overflow_.push_back(key);
    std::push_heap(overflow_.begin(), overflow_.end(), Later{});
    return;
  }
  // The level is picked by the highest bit where the tick DIFFERS from the
  // cursor.  All bits above that level agree with the cursor, so the slot
  // index can be taken from the tick's absolute digits: the slot is always
  // strictly ahead of the cursor's digit at that level and is reached
  // before the digit wraps — no modular-arithmetic aliasing.
  const int level = (63 - std::countl_zero(delta)) / kSlotBits;
  const std::size_t slot =
      (tick >> (level * kSlotBits)) & (kSlotsPerLevel - 1);
  // Park the ordering key in the action's own slab node and thread it
  // onto the slot's chain — no container, no allocation.
  Node& n = node(key.node);
  n.at = key.at;
  n.tie = key.tie;
  n.seq = key.seq;
  n.next = slots_[level][slot];
  slots_[level][slot] = key.node;
  occupied_[level] |= std::uint64_t{1} << slot;
}

V_HOT_PATH
void EventLoop::schedule_at(SimTime at, Action action) {
  if (at < now_) at = now_;
  const std::uint64_t seq = next_seq_++;
  if (action.is_inline()) {
    ++stats_.actions_inline;
  } else {
    ++stats_.actions_heap;
  }
  const Key key{at, tie_key(seq), seq, alloc_node(std::move(action))};
  ++pending_;
  if (tick_of(at) <= cur_tick_) {
    // At or behind the cursor (same tick as the events being drained):
    // straight into the due heap, where the (at, tie, seq) key slots it
    // exactly where the old engine would have fired it — under fuzz a
    // fresh arrival's hashed tie may well sort BEFORE pending events.
    push_due(key);
  } else {
    wheel_insert(key);
  }
}

V_HOT_PATH
void EventLoop::advance() {
  assert(due_.empty() && pending_ > 0);
  for (;;) {
    // Earliest wheel candidate: the lowest level with an occupied slot
    // ahead of the cursor's digit.  (Slots at or behind the digit are
    // impossible at insertion and cleared on drain, so "ahead" is a plain
    // bitmask, not a modular scan.)
    int level = -1;
    std::size_t slot = 0;
    for (int l = 0; l < kLevels; ++l) {
      const std::size_t digit =
          (cur_tick_ >> (l * kSlotBits)) & (kSlotsPerLevel - 1);
      const std::uint64_t ahead =
          digit + 1 < kSlotsPerLevel
              ? occupied_[l] & (~std::uint64_t{0} << (digit + 1))
              : 0;
      if (ahead != 0) {
        level = l;
        slot = static_cast<std::size_t>(std::countr_zero(ahead));
        break;
      }
    }
    // Slot base tick: cursor digits above the level, the found slot digit
    // at the level, zeros below — a lower bound for every tick in the slot.
    std::uint64_t base = 0;
    if (level >= 0) {
      const int shift = (level + 1) * kSlotBits;
      base = ((cur_tick_ >> shift) << shift) |
             (static_cast<std::uint64_t>(slot) << (level * kSlotBits));
    }

    if (!overflow_.empty()) {
      const std::uint64_t overflow_tick = tick_of(overflow_.front().at);
      if (level < 0 || overflow_tick < base) {
        // The far-future heap holds the earliest pending work (the wheel's
        // high tick bits only change on this jump, so overflow events are
        // in fact always later than every wheel event — this branch fires
        // when the wheel is empty ahead of the cursor).  Jump the cursor
        // and promote everything now within wheel range.
        cur_tick_ = overflow_tick;
        while (!overflow_.empty() &&
               ((tick_of(overflow_.front().at) ^ cur_tick_) >> kWheelBits) ==
                   0) {
          std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
          const Key key = overflow_.back();
          overflow_.pop_back();
          ++stats_.overflow_promotions;
          if (tick_of(key.at) <= cur_tick_) {
            push_due(key);
          } else {
            wheel_insert(key);
          }
        }
        if (!due_.empty()) return;
        continue;
      }
    }

    assert(level >= 0);
    occupied_[level] &= ~(std::uint64_t{1} << slot);
    cur_tick_ = base;
    if (level == 0) {
      // A level-0 slot holds exactly one tick; everything in it is due.
      std::uint32_t idx = slots_[0][slot];
      slots_[0][slot] = kNilNode;
      while (idx != kNilNode) {
        const Node& n = node(idx);
        const std::uint32_t next = n.next;  // push_due never touches nodes
        push_due(Key{n.at, n.tie, n.seq, idx});
        idx = next;
      }
      return;
    }
    // Higher level: cascade the slot one step down.  Every key differs
    // from the new cursor only below this level's bits, so reinsertion
    // lands at a strictly lower level (or in the due heap when its tick IS
    // the slot base).  Detach the chain head first: wheel_insert rethreads
    // each node's `next` as it files it, so read the link before
    // reinserting.  Chain order does not matter — the due heap's strict
    // (at, tie, seq) order fixes firing order (see slots_ in the header).
    std::uint32_t idx = slots_[level][slot];
    slots_[level][slot] = kNilNode;
    while (idx != kNilNode) {
      const Node& n = node(idx);
      const std::uint32_t next = n.next;
      const Key key{n.at, n.tie, n.seq, idx};
      ++stats_.wheel_cascades;
      if (tick_of(key.at) <= cur_tick_) {
        push_due(key);
      } else {
        wheel_insert(key);
      }
      idx = next;
    }
    if (!due_.empty()) return;
  }
}

V_HOT_PATH
bool EventLoop::step_untimed() {
  if (due_.empty()) {
    if (pending_ == 0) return false;
    advance();
  }
  const Key key = pop_due();
  --pending_;
  // Move the action out and retire its node BEFORE running it: whatever
  // the action schedules reuses the just-freed node, keeping the hot
  // self-rescheduling path inside one warm slab line.
  Action action = std::move(node(key.node).action);
  free_node(key.node);
  now_ = key.at;
  ++executed_;
  if (fire_hook_ != nullptr) fire_hook_(fire_ctx_, now_);
  // Ambient context: the simulation is single-threaded, but loops nest
  // (domains inside domains in tests), so save and restore.
  AmbientContext& amb = ambient();
  const EventLoop* prev_loop = amb.loop;
  amb.loop = this;
  action();
  amb.loop = prev_loop;
  return true;
}

// Host-clock accounting (V-trace profiling) is batched around the run
// loops rather than read per event: two steady_clock reads cost ~60 ns,
// which at timer-wheel speeds would be a third of the whole event budget.
// wall_ns therefore covers event execution INCLUDING scheduler overhead —
// the number wall_vs_sim regressions actually care about.

bool EventLoop::step() {
  const auto wall_start = std::chrono::steady_clock::now();
  const bool ran = step_untimed();
  stats_.wall_ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - wall_start)
          .count());
  return ran;
}

void EventLoop::run_until_idle() {
  const auto wall_start = std::chrono::steady_clock::now();
  while (step_untimed()) {
  }
  stats_.wall_ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - wall_start)
          .count());
}

void EventLoop::run_until(SimTime deadline) {
  const auto wall_start = std::chrono::steady_clock::now();
  for (;;) {
    if (due_.empty()) {
      if (pending_ == 0) break;
      advance();  // moves events into the due heap; executes nothing, so
                  // overshooting the deadline here is harmless
    }
    if (due_.front().at > deadline) break;
    step_untimed();
  }
  if (now_ < deadline) now_ = deadline;
  stats_.wall_ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - wall_start)
          .count());
}

}  // namespace v::sim
