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
// Scheduler (see DESIGN.md §4i): one binary heap of 32-byte keys ordered
// by the exact (at, tie, seq) key of the original priority_queue engine,
// so firing order (FIFO and fuzz-hash) is the same as that engine's.  The
// actions wait in a slab; the heap moves keys only.  With fuzz off, an
// event scheduled at exactly now() skips the heap for a FIFO "same-instant
// lane" that fires after the heap's events at now() and before anything
// later — the same order (DESIGN.md §4i).
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
  /// Always 0 (the scheduler has no timer wheel); kept because
  /// bench/vbench reads it for its `sim.wheel_cascades` field.
  std::uint64_t wheel_cascades = 0;
  /// Scheduled actions that fit InlineAction's buffer (no allocation) vs.
  /// ones that spilled to a heap node.  actions_heap > 0 in a hot loop
  /// means some closure outgrew the inline budget — find it and shrink it.
  /// Resume events (resume_after) allocate nothing and count as inline.
  std::uint64_t actions_inline = 0;
  std::uint64_t actions_heap = 0;
  /// Host-clock nanoseconds spent running events — actions plus scheduler
  /// overhead, accumulated per run_until_idle/run_until burst rather than
  /// per event (a per-event clock read would dominate the hot path at
  /// scheduler speeds).  V-trace profiling; host time only, never read
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

  /// Number of events currently pending (heap and lane).
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
  /// heap can express.
  void enable_fuzz(std::uint64_t seed) noexcept {
    fuzz_ = true;
    fuzz_seed_ = seed;
  }
  [[nodiscard]] std::uint64_t fuzz_seed() const noexcept { return fuzz_seed_; }

 private:
  /// Ordering key of one pending event, plus the slab index of its action.
  /// Keys are 32-byte PODs: heap sifts copy keys, never actions — the
  /// action is written once into its slab node and read once at execution.
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
  /// without allocating.  A lane node uses `next` as the lane's FIFO link,
  /// a free node as the free-list link.
  struct Node {
    Action action;
    std::coroutine_handle<> resume = nullptr;
    FiberState* fiber = nullptr;
    std::uint32_t next = kNilNode;
  };
  static constexpr std::uint32_t kNilNode = 0xffffffffu;
  static constexpr std::size_t kChunkBits = 9;  // 512 nodes = 104 KiB / chunk

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
  /// when `at` is now() and fuzz is off, else the heap.
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

  FireHook fire_hook_ = nullptr;
  void* fire_ctx_ = nullptr;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  bool fuzz_ = false;
  std::uint64_t fuzz_seed_ = 0;
  EventLoopStats stats_;

  std::size_t pending_ = 0;  ///< heap + lane
  std::vector<Key> due_;     ///< binary heap (Later): every non-lane event
  /// Same-instant lane: a FIFO chain (through Node::next) of events
  /// scheduled at exactly now() with fuzz off.  Every lane event is at
  /// now(), so it needs no key; FIFO order is seq order.
  std::uint32_t lane_head_ = kNilNode;
  std::uint32_t lane_tail_ = kNilNode;
  std::vector<std::unique_ptr<Node[]>> chunks_;  ///< action slab
  std::uint32_t free_head_ = kNilNode;
  std::uint32_t slab_used_ = 0;  ///< high-water mark of allocated nodes
};

}  // namespace v::sim
