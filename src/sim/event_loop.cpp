#include "sim/event_loop.hpp"

#include <algorithm>
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
}

V_HOT_PATH
std::uint64_t EventLoop::tie_key(std::uint64_t seq) const noexcept {
  return fuzz_ ? mix64(fuzz_seed_ ^ mix64(seq)) : seq;
}

std::uint32_t EventLoop::fresh_node() {
  const std::uint32_t idx = slab_used_++;
  if ((idx >> kChunkBits) == chunks_.size()) {
    chunks_.push_back(std::make_unique<Node[]>(std::size_t{1} << kChunkBits));
  }
  return idx;
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
  // Under fuzz a fresh arrival's hashed tie may sort BEFORE events already
  // pending at the same instant — exactly the original engine's order.
  push_due(Key{at, tie_key(seq), seq, idx});
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
bool EventLoop::step_untimed() {
  // The lane holds events at now(); the heap may still hold events at
  // now() scheduled before them (smaller seq), which fire first.
  if (lane_head_ != kNilNode && (due_.empty() || due_.front().at != now_)) {
    const std::uint32_t idx = lane_head_;
    lane_head_ = node(idx).next;
    if (lane_head_ == kNilNode) lane_tail_ = kNilNode;
    --pending_;
    fire(idx, now_);
    return true;
  }
  if (due_.empty()) return false;
  const Key key = pop_due();
  --pending_;
  fire(key.node, key.at);
  return true;
}

// Host-clock accounting (V-trace profiling) is batched around the run
// loops rather than read per event: two steady_clock reads cost ~60 ns,
// which at scheduler speeds would be a third of the whole event budget.
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
    if (lane_head_ != kNilNode) {
      if (now_ > deadline) break;  // the lane is at now()
    } else if (due_.empty() || due_.front().at > deadline) {
      break;
    }
    step_untimed();
  }
  if (now_ < deadline) now_ = deadline;
  stats_.wall_ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - wall_start)
          .count());
}

}  // namespace v::sim
