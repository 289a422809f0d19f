// A FIFO condition awaitable over the event loop.
//
// Server teams (naming/csnh_server.hpp) park worker fibers on a WaitQueue
// while their shared work queue is empty; the receptionist notifies one
// waiter per enqueued item.  Wake-ups are FIFO and delivered as immediate
// events (at the current simulated time), so same-time orderings stay
// deterministic: waiters resume in the order they parked, interleaved with
// other events by the loop's sequence numbers.
//
// Unlike Waker (one pending resume, one party), a WaitQueue holds any
// number of parked fibers.  Kill-safety follows the ParkAwaiter pattern:
// the awaiter captures the fiber's state and throws FiberKilled on resume
// after kill.  A fiber killed while parked is simply never resumed by the
// queue; its suspended frame is reclaimed when the owning Fiber is
// destroyed (the same story as any suspended coroutine).
#pragma once

#include <coroutine>
#include <deque>
#include <memory>
#include <utility>

#include "sim/event_loop.hpp"
#include "sim/task.hpp"

namespace v::sim {

class WaitQueue {
 public:
  class Awaiter {
   public:
    Awaiter(WaitQueue& queue, FiberState* fiber) noexcept
        : queue_(queue), fiber_(fiber) {}

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      queue_.waiters_.push_back(Parked{h, fiber_});
    }
    void await_resume() const {
      if (fiber_ != nullptr && fiber_->killed) throw FiberKilled{};
    }

   private:
    WaitQueue& queue_;
    FiberState* fiber_;  ///< raw on purpose — see awaitables.hpp lifetime
  };

  /// Park the calling fiber at the back of the queue.  The WaitQueue must
  /// outlive the suspension (server objects own both, see CsnhServer).
  [[nodiscard]] Awaiter wait(FiberState* fiber) {
    return Awaiter(*this, fiber);
  }

  /// Resume the front waiter (FIFO) via an immediate event.  Waiters whose
  /// fiber died while parked are discarded, not resumed: their frames are
  /// owned (and reclaimed) by the kernel's Fiber, and resuming them here
  /// after a host crash would touch a dead process.
  void notify_one(EventLoop& loop) {
    while (!waiters_.empty()) {
      Parked p = std::move(waiters_.front());
      waiters_.pop_front();
      if (p.fiber != nullptr && p.fiber->killed) continue;
      loop.resume_after(0, p.handle, p.fiber);
      return;
    }
  }

  [[nodiscard]] std::size_t waiting() const noexcept {
    return waiters_.size();
  }

 private:
  struct Parked {
    std::coroutine_handle<> handle;
    FiberState* fiber;
  };
  std::deque<Parked> waiters_;
};

}  // namespace v::sim
