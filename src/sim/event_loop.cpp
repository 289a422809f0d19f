#include "sim/event_loop.hpp"

#include <chrono>
#include <utility>

#include "common/log.hpp"
#include "sim/task.hpp"
#include "common/annotate.hpp"

namespace v::sim {

namespace {

/// Adds the host time of its scope to a wall_ns counter.
struct WallTimer {
  std::uint64_t& ns;
  const std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  ~WallTimer() {
    const std::chrono::nanoseconds took =
        std::chrono::steady_clock::now() - start;
    ns += static_cast<std::uint64_t>(took.count());
  }
};

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
}

std::uint32_t EventLoop::fresh_node() {
  const std::uint32_t idx = slab_used_++;
  if ((idx >> kChunkBits) == chunks_.size()) {
    chunks_.push_back(std::make_unique<Node[]>(std::size_t{1} << kChunkBits));
  }
  return idx;
}

V_HOT_PATH
void EventLoop::enqueue(SimTime at, std::uint32_t idx) {
  if (at < now_) at = now_;
  const std::uint64_t seq = next_seq_++;
  ++pending_;
  if (at == now_ && !fuzz_) {
    // Same-instant lane: every pending event at now() was scheduled
    // earlier (smaller seq), every later arrival at now() queues behind.
    node(idx).next = kNilNode;
    if (lane_tail_ == kNilNode) {
      lane_head_ = idx;
    } else {
      node(lane_tail_).next = idx;
    }
    lane_tail_ = idx;
    return;
  }
  // The tie is seq, or under fuzz a hash of it that is a bijection (mix64
  // is), so no two keys share one and (at, tie) orders like (at, tie,
  // seq).  A fresh arrival's hashed tie may sort BEFORE events already
  // pending at the same instant — exactly the original engine's order.
  const Key key{at, fuzz_ ? mix64(*fuzz_ ^ mix64(seq)) : seq, idx};
  if (root_fired_) {
    // Replace-top: the first key filed while the root's event runs takes
    // the root's slot, one sift-down instead of a pop plus a push.
    root_fired_ = false;
    sift_down(key);
    return;
  }
  // Sift up: move parents down into the hole until key's slot is found.
  std::size_t i = due_.size();
  due_.push_back(key);
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!key.before(due_[parent])) break;
    due_[i] = due_[parent];
    i = parent;
  }
  due_[i] = key;
}

V_HOT_PATH
void EventLoop::fire(std::uint32_t idx, SimTime at) {
  Node& n = node(idx);
  // Take the payload out and retire the node BEFORE running it: whatever
  // the event schedules reuses the just-freed node, keeping the hot
  // self-rescheduling path inside one warm slab line.
  const std::coroutine_handle<> h = std::exchange(n.resume, nullptr);
  FiberState* const fiber = n.fiber;
  Action action;
  if (!h) action = std::move(n.action);
  free_node(idx);
  --pending_;
  now_ = at;
  ++executed_;
  if (fire_hook_ != nullptr) fire_hook_(fire_ctx_, now_);
  // Ambient context: the simulation is single-threaded, but loops nest
  // (domains inside domains in tests), so save and restore.
  AmbientContext& amb = ambient();
  const EventLoop* prev_loop = amb.loop;
  amb.loop = this;
  if (h) {
    FiberRunScope scope(fiber);
    h.resume();
  } else {
    action();
  }
  amb.loop = prev_loop;
}

V_HOT_PATH
void EventLoop::sift_down(const Key& key) {
  // Move the earliest child up into the hole at the root until no child
  // fires before `key`.  A full group of children is scanned with a
  // constant count, which the compiler unrolls; only the last group may be
  // partial.  min_of is the index of the earliest of the `count` keys from
  // `first` on.
  const auto min_of = [this](std::size_t first, std::size_t count) {
    std::size_t best = first;
    for (std::size_t c = first + 1; c < first + count; ++c) {
      if (due_[c].before(due_[best])) best = c;
    }
    return best;
  };
  const std::size_t n = due_.size();
  std::size_t i = 0;
  for (std::size_t first = 1; first < n; first = i * kArity + 1) {
    const std::size_t best =
        first + kArity <= n ? min_of(first, kArity) : min_of(first, n - first);
    if (!due_[best].before(key)) break;
    due_[i] = due_[best];
    i = best;
  }
  due_[i] = key;
}

V_HOT_PATH
bool EventLoop::step_until(SimTime deadline) {
  if (root_fired_) {  // no key replaced the fired root: pop it
    root_fired_ = false;
    const Key last = due_.back();
    due_.pop_back();
    if (!due_.empty()) sift_down(last);
  }
  // The lane holds events at now(); the heap may still hold events at
  // now() scheduled before them (smaller seq), which fire first.
  if (lane_head_ != kNilNode && (due_.empty() || due_.front().at != now_)) {
    if (now_ > deadline) return false;
    const std::uint32_t idx = lane_head_;
    lane_head_ = node(idx).next;
    if (lane_head_ == kNilNode) lane_tail_ = kNilNode;
    fire(idx, now_);
    return true;
  }
  if (due_.empty() || due_.front().at > deadline) return false;
  const Key top = due_.front();
  root_fired_ = true;  // its key stays at the root until replaced or popped
  fire(top.node, top.at);
  return true;
}

// Host-clock accounting (V-trace profiling) is batched around the run
// loops rather than read per event: two steady_clock reads cost ~60 ns,
// which at scheduler speeds would be a third of the whole event budget.
// wall_ns therefore covers event execution INCLUDING scheduler overhead —
// the number wall_vs_sim regressions actually care about.

bool EventLoop::step() {
  const WallTimer timer{stats_.wall_ns};
  return step_until(kNever);
}

void EventLoop::run_until_idle() {
  const WallTimer timer{stats_.wall_ns};
  while (step_until(kNever)) {
  }
}

void EventLoop::run_until(SimTime deadline) {
  const WallTimer timer{stats_.wall_ns};
  while (step_until(deadline)) {
  }
  if (now_ < deadline) now_ = deadline;
}

}  // namespace v::sim
