// Deterministic discrete-event loop.
//
// Every state change in the simulated V domain happens inside an event.
// Events at equal times fire in scheduling order (a monotone sequence number
// breaks ties), so runs are fully deterministic for a given seed.
//
// Schedule-fuzz mode (enable_fuzz): same-timestamp ties are instead broken
// by a seeded hash of the sequence number, deterministically permuting the
// firing order of simultaneous events.  The scheduling-order tie rule is an
// implementation convenience, not a documented guarantee — correct sim code
// must not depend on which of two same-time events fires first (FIFO
// fairness is provided where it matters by WaitQueue and the server gate
// queues, which order waiters themselves).  The fuzzer explores exactly
// this freedom: same seed, same schedule; a failing seed reproduces the
// interleaving in one command.
//
// Scheduler (see DESIGN.md §4i): a hierarchical timer wheel — 6 levels of
// 64 slots over a 65.536 µs tick — feeding a small "due heap" that holds
// only the events of the tick being drained.  Insert and pop are O(1)
// amortized at wheel granularity; ordering WITHIN a tick goes through the
// due heap using the exact (at, tie, seq) key of the old priority_queue
// engine, so firing order (FIFO and fuzz-hash) is bit-identical to it.
// Events beyond the wheel horizon (2^36 ticks ≈ 52 simulated days) wait in
// an overflow heap and are promoted as the wheel cursor approaches.
// With fuzz off, an event scheduled at exactly now() skips the due heap for
// a FIFO "same-instant lane" that fires after the due heap's events at
// now() and before anything later — the same order (DESIGN.md §4i).
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/action.hpp"
#include "sim/time.hpp"
#include "common/annotate.hpp"

namespace v::sim {

struct FiberState;

/// Counters the loop keeps about its own operation (beyond events_executed).
struct EventLoopStats {
  /// Times schedule_after was handed a negative delay and clamped it to 0.
  /// Always a bug in the caller (simulated time cannot run backwards);
  /// debug builds assert, release builds count so fuzz sweeps can flag
  /// time-travel bugs that only surface under permuted schedules.
  std::uint64_t negative_delay_clamps = 0;
  /// Events redistributed from a higher wheel level toward level 0 when the
  /// cursor entered their slot.  Each event cascades at most 5 times; a
  /// high rate relative to events_executed means delays routinely span
  /// level boundaries (expected for multi-second timeouts, worth a look if
  /// sub-millisecond traffic dominates it).
  std::uint64_t wheel_cascades = 0;
  /// Events promoted out of the far-future overflow heap into the wheel.
  /// Nonzero only when something schedules > ~52 simulated days ahead.
  std::uint64_t overflow_promotions = 0;
  /// Scheduled actions that fit InlineAction's buffer (no allocation) vs.
  /// ones that spilled to a heap node.  actions_heap > 0 in a hot loop
  /// means some closure outgrew the inline budget — find it and shrink it.
  /// Resume events (resume_after) allocate nothing and count as inline.
  std::uint64_t actions_inline = 0;
  std::uint64_t actions_heap = 0;
  /// Host-clock nanoseconds spent running events — actions plus scheduler
  /// overhead, accumulated per run_until_idle/run_until burst rather than
  /// per event (a per-event clock read would dominate the hot path at
  /// timer-wheel speeds).  V-trace profiling; host time only, never read
  /// by simulated behavior.
  std::uint64_t wall_ns = 0;
};

/// Discrete-event scheduler.  Not thread-safe; the whole simulation is
/// single-threaded by design (determinism is a feature, see DESIGN.md).
class EventLoop {
 public:
  /// Move-only small-buffer callable (see action.hpp).  Scheduling a lambda
  /// that fits inline never heap-allocates.
  using Action = InlineAction;

  /// Registers the ambient log-context bridge (VLOG time/pid prefixes) on
  /// first construction; otherwise stateless setup.
  EventLoop();

  /// Current simulated time.  Monotonically non-decreasing.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedule `fn` (any void() callable, or an Action) to run at absolute
  /// time `at` (clamped to now()).  The callable is constructed directly
  /// in its slab node: no intermediate Action is built and relocated.
  template <typename F>
  V_HOT_PATH void schedule_at(SimTime at, F&& fn) {
    const std::uint32_t idx = alloc_node();
    Action& action = node(idx).action;
    try {
      if constexpr (std::is_same_v<std::decay_t<F>, Action>) {
        action = std::forward<F>(fn);
      } else {
        action.emplace(std::forward<F>(fn));
      }
    } catch (...) {
      free_node(idx);
      throw;
    }
    ++(action.is_inline() ? stats_.actions_inline : stats_.actions_heap);
    enqueue(at, idx);
  }

  /// Schedule `fn` to run `delay` from now.  Negative delays are a caller
  /// bug: debug builds assert, all builds clamp to 0 and count the
  /// occurrence in stats().
  template <typename F>
  V_HOT_PATH void schedule_after(SimDuration delay, F&& fn) {
    schedule_at(now_ + clamp_delay(delay), std::forward<F>(fn));
  }

  /// Resume coroutine `h` of `fiber` (may be null) `delay` from now,
  /// inside a FiberRunScope.  The event's slab node holds the pair
  /// itself — the one resume path every awaitable and waker uses.  Kill
  /// is the awaitable's business: its await_resume throws FiberKilled.
  /// Negative delays are clamped and counted as in schedule_after.
  V_HOT_PATH
  void resume_after(SimDuration delay, std::coroutine_handle<> h,
                    FiberState* fiber) {
    const std::uint32_t idx = alloc_node();
    Node& n = node(idx);
    n.resume = h;
    n.fiber = fiber;
    ++stats_.actions_inline;
    enqueue(now_ + clamp_delay(delay), idx);
  }

  /// Run one event.  Returns false when the queue is empty.  (Wall-clock
  /// profiling reads the host clock per call here; the run_* loops batch
  /// it instead — see event_loop.cpp.)
  bool step();

  /// Run until no events remain.
  void run_until_idle();

  /// Run until simulated time would exceed `deadline` or the queue drains.
  /// Events at exactly `deadline` still run.
  void run_until(SimTime deadline);

  /// Number of events executed so far (for tests and throughput benches).
  [[nodiscard]] std::uint64_t events_executed() const noexcept {
    return executed_;
  }

  /// Number of events currently pending (due heap, lane, wheel, overflow).
  [[nodiscard]] std::size_t pending() const noexcept { return pending_; }

  [[nodiscard]] const EventLoopStats& stats() const noexcept { return stats_; }

  /// Host seconds burned per simulated second so far (V-trace profiling).
  /// > 1 means the simulation runs slower than real time on this host.
  [[nodiscard]] double wall_vs_sim() const noexcept {
    if (now_ <= 0) return 0.0;
    return static_cast<double>(stats_.wall_ns) / static_cast<double>(now_);
  }

  /// Per-event dispatch hook (the V-blackbox flight recorder's "timer
  /// fires" channel): called once per executed event with the event's
  /// firing time, after now() advances and before the action runs.  A raw
  /// function pointer on purpose — this sits on the hottest loop in the
  /// repo and must cost one predictable branch when unset (std::function
  /// would add an indirect call through a type-erased thunk plus a
  /// possible allocation at install time).  The hook observes host-side
  /// only: it must not schedule events or touch simulated state.
  using FireHook = void (*)(void* ctx, SimTime at) noexcept;
  void set_fire_hook(FireHook hook, void* ctx) noexcept {
    fire_hook_ = hook;
    fire_ctx_ = ctx;
  }

  /// Enter schedule-fuzz mode: break same-timestamp ties by a hash of
  /// (seed, seq) instead of scheduling order.  Fully deterministic for a
  /// given seed.  Call before scheduling anything; events already queued
  /// keep their FIFO tie keys.  Fuzz bypasses the same-instant lane: a
  /// hashed tie may sort before events already pending, which only the
  /// due heap can express.
  void enable_fuzz(std::uint64_t seed) noexcept {
    fuzz_ = true;
    fuzz_seed_ = seed;
  }
  [[nodiscard]] std::uint64_t fuzz_seed() const noexcept { return fuzz_seed_; }

 private:
  /// Ordering key of one pending event, plus the slab index of its action.
  /// Keys are 32-byte PODs: everything the scheduler shuffles (heap sifts,
  /// wheel cascades) copies keys, never actions — the action is written
  /// once into its slab node and read once at execution.
  struct Key {
    SimTime at;
    std::uint64_t tie;  ///< seq normally; seeded hash of seq under fuzz
    std::uint64_t seq;
    std::uint32_t node;  ///< slab index of the action
  };
  /// Heap comparator: "a fires later than b".  A binary heap under this
  /// predicate keeps the EARLIEST event at the front — the same total
  /// order (at, tie, seq) the old priority_queue engine used.
  struct Later {
    bool operator()(const Key& a, const Key& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      if (a.tie != b.tie) return a.tie > b.tie;
      return a.seq > b.seq;
    }
  };
  /// Slab node: the parked action, or for a resume event the coroutine
  /// handle and its fiber (`resume` non-null, `action` empty).  Nodes live
  /// in fixed chunks (stable addresses, no vector-growth relocation) and
  /// recycle through a free list — after warm-up the loop schedules
  /// without allocating.  While an event waits in a wheel slot, its node
  /// ALSO holds the ordering key (at/tie/seq) and `next` threads the
  /// slot's intrusive chain — wheel buckets are node chains, not vectors,
  /// so parking an event never allocates either.  A lane node uses `next`
  /// as the lane's FIFO link, a free node as the free-list link.
  struct Node {
    Action action;
    std::coroutine_handle<> resume = nullptr;
    FiberState* fiber = nullptr;
    SimTime at = 0;
    std::uint64_t tie = 0;
    std::uint64_t seq = 0;
    std::uint32_t next = kNilNode;
  };
  static constexpr std::uint32_t kNilNode = 0xffffffffu;
  static constexpr std::size_t kChunkBits = 9;  // 512 nodes = 112 KiB / chunk

  // Wheel geometry.  A tick is 2^16 ns = 65.536 µs — comfortably below the
  // smallest calibrated delay (the 385 µs local hop), so same-tick
  // collisions of DIFFERENT timestamps are rare and cheaply resolved by
  // the due heap.  Six levels of 64 slots cover 2^36 ticks ≈ 52 simulated
  // days; beyond that, the overflow heap.
  static constexpr int kTickBits = 16;
  static constexpr int kSlotBits = 6;
  static constexpr int kLevels = 6;
  static constexpr std::size_t kSlotsPerLevel = std::size_t{1} << kSlotBits;
  static constexpr int kWheelBits = kLevels * kSlotBits;  // 36

  V_HOT_PATH
  static std::uint64_t tick_of(SimTime at) noexcept {
    return static_cast<std::uint64_t>(at) >> kTickBits;
  }

  [[nodiscard]] std::uint64_t tie_key(std::uint64_t seq) const noexcept;

  V_HOT_PATH
  SimDuration clamp_delay(SimDuration delay) noexcept {
    if (delay < 0) {
      ++stats_.negative_delay_clamps;
      assert(!"negative delay passed to EventLoop::schedule_after");
      delay = 0;
    }
    return delay;
  }

  /// Give the filled node `idx` its sequence number and file it: the lane
  /// when `at` is now() and fuzz is off, else the due heap or the wheel.
  void enqueue(SimTime at, std::uint32_t idx);
  /// Fire node `idx` at time `at`: free it, advance now(), run it.
  void fire(std::uint32_t idx, SimTime at);

  bool step_untimed();

  V_HOT_PATH
  Node& node(std::uint32_t idx) noexcept {
    return chunks_[idx >> kChunkBits][idx & ((1u << kChunkBits) - 1)];
  }
  /// A free node with an empty action and no resume.
  V_HOT_PATH
  std::uint32_t alloc_node() {
    const std::uint32_t idx = free_head_;
    if (idx == kNilNode) {
      return fresh_node();  // vlint: allow(hot-path-alloc): cold slab growth
    }
    free_head_ = node(idx).next;
    return idx;
  }
  /// Extend the slab by one node (a new chunk every 512): the cold half of
  /// alloc_node, since the steady state reuses freed nodes.
  std::uint32_t fresh_node();
  V_HOT_PATH
  void free_node(std::uint32_t idx) noexcept {
    node(idx).next = free_head_;
    free_head_ = idx;
  }

  void push_due(const Key& key);
  Key pop_due();
  /// Insert a key whose tick is strictly ahead of the cursor.
  void wheel_insert(const Key& key);
  /// Refill the due heap from the wheel/overflow.  Precondition: due heap
  /// empty, pending_ > 0.  Postcondition: due heap non-empty, cursor on
  /// the earliest pending tick.
  void advance();

  FireHook fire_hook_ = nullptr;
  void* fire_ctx_ = nullptr;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  bool fuzz_ = false;
  std::uint64_t fuzz_seed_ = 0;
  EventLoopStats stats_;

  /// Wheel cursor: every event with tick ≤ cur_tick_ has been moved to the
  /// due heap; the wheel and overflow hold only ticks strictly ahead.
  std::uint64_t cur_tick_ = 0;
  std::size_t pending_ = 0;  ///< due + lane + wheel + overflow
  std::vector<Key> due_;     ///< binary heap (Later): the tick being drained
  std::vector<Key> overflow_;  ///< binary heap: > 2^36 ticks ahead
  /// Same-instant lane: a FIFO chain (through Node::next) of events
  /// scheduled at exactly now() with fuzz off.  Every lane event is at
  /// now(), so it needs no key; FIFO order is seq order.
  std::uint32_t lane_head_ = kNilNode;
  std::uint32_t lane_tail_ = kNilNode;
  std::uint64_t occupied_[kLevels] = {};  ///< per-level slot bitmaps
  /// Wheel slots: head node index of each slot's intrusive chain (the
  /// keys live in the slab nodes; see Node).  Chain order is arbitrary —
  /// the due heap's strict (at, tie, seq) order, with seq unique, fixes
  /// the firing order regardless of how a slot was threaded.
  std::uint32_t slots_[kLevels][kSlotsPerLevel];
  std::vector<std::unique_ptr<Node[]>> chunks_;  ///< action slab
  std::uint32_t free_head_ = kNilNode;
  std::uint32_t slab_used_ = 0;  ///< high-water mark of allocated nodes
};

}  // namespace v::sim
