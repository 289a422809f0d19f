// Generic awaitables over the event loop.
//
// LIFETIME CONTRACT: awaitables and wakers hold the fiber's FiberState by
// RAW pointer, not shared_ptr.  The pointed-to state must outlive every
// pending wake/delay event.  The kernel guarantees this structurally:
// process records (which own the Fiber, which owns the FiberState) are
// retained until the Domain is destroyed, and the Domain's event loop is
// destroyed first — pending actions are dropped, never run, after that.
// The old shared_ptr plumbing cost four atomic refcount pairs per IPC
// transaction and made every wake closure non-trivially relocatable; the
// raw pointer makes the park/wake path allocation- and atomics-free.
#pragma once

#include <coroutine>
#include <utility>

#include "sim/event_loop.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "common/annotate.hpp"

namespace v::sim {

/// Suspend the current fiber for `delay` of simulated time.
///
/// Always suspends (even for zero delays) so that ordering between
/// same-time events stays deterministic and explicit.  Honors fiber kill:
/// resuming a killed fiber throws FiberKilled.
class DelayAwaiter {
 public:
  DelayAwaiter(EventLoop& loop, SimDuration delay,
               FiberState* fiber) noexcept
      : loop_(loop), delay_(delay), fiber_(fiber) {}

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    loop_.resume_after(delay_, h, fiber_);
  }
  void await_resume() const {
    if (fiber_ != nullptr && fiber_->killed) throw FiberKilled{};
  }

 private:
  EventLoop& loop_;
  SimDuration delay_;
  FiberState* fiber_;
};

/// Park the current fiber until an external party resumes it by calling
/// the Waker.  Used by the kernel for blocking IPC states (awaiting reply,
/// awaiting message).  The kernel is responsible for eventually waking every
/// parked fiber, including on kill.
class ParkAwaiter;

/// Handle used to wake a parked fiber.  Copyable; waking twice is an error.
class Waker {
 public:
  Waker() = default;

  /// Resume the parked fiber via an immediate event (at current sim time).
  V_HOT_PATH
  void wake(EventLoop& loop) {
    V_CHECK(handle_ != nullptr);
    loop.resume_after(0, std::exchange(handle_, nullptr), fiber_);
  }

  /// Resume the parked fiber `delay` from now.
  void wake_after(EventLoop& loop, SimDuration delay) {
    V_CHECK(handle_ != nullptr);
    loop.resume_after(delay, std::exchange(handle_, nullptr), fiber_);
  }

  [[nodiscard]] bool armed() const noexcept { return handle_ != nullptr; }

 private:
  friend class ParkAwaiter;
  std::coroutine_handle<> handle_ = nullptr;
  FiberState* fiber_ = nullptr;  ///< parked fiber, for the run scope
};

class ParkAwaiter {
 public:
  /// `waker` must outlive the suspension; the kernel stores it in its wait
  /// records.  `fiber` enables kill-by-exception on resume.
  V_HOT_PATH
  ParkAwaiter(Waker& waker, FiberState* fiber) noexcept
      : waker_(waker), fiber_(fiber) {}

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) noexcept {
    waker_.handle_ = h;
    waker_.fiber_ = fiber_;
  }
  void await_resume() const {
    if (fiber_ != nullptr && fiber_->killed) throw FiberKilled{};
  }

 private:
  Waker& waker_;
  FiberState* fiber_;
};

}  // namespace v::sim
