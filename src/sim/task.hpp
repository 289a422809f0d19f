// Coroutine task types for simulated processes.
//
// Simulated V processes are C++20 coroutines.  Blocking kernel primitives
// (Send, Receive, Delay, ...) are awaitables that park the coroutine and let
// the event loop resume it at the right simulated time.  Two types:
//
//  * Co<T>  — a lazily-started child coroutine, awaited by its caller with
//             symmetric transfer.  This is what every helper/stub returns.
//  * Fiber  — owns the root coroutine of one simulated process.  Kill is by
//             exception:  a killed fiber's next resume throws FiberKilled
//             from the innermost awaitable, unwinding the whole chain, so no
//             suspended frame is ever destroyed out from under a pending
//             resume (see DESIGN.md "kill-safe unwinding").
//
// COMPILER NOTE (load-bearing): GCC 12.2 miscompiles non-trivially-
// destructible TEMPORARIES appearing as arguments of a coroutine call inside
// a co_await full-expression — they are destroyed twice (observed as
// double-free; minimal repro in DESIGN.md).  Repo-wide rule, enforced by
// review and exercised by the ASAN test job:
//     NEVER write   co_await f(make_string(...));
//     ALWAYS hoist  const std::string s = make_string(...);
//                   co_await f(s);
// Trivially-destructible temporaries (spans, string_views of literals, ids,
// Messages) are unaffected.  The same codegen bugs bite co_await inside a
// CONDITIONAL EXPRESSION (`c ? co_await a : co_await b`) — use if/else.
#pragma once

#include <chrono>
#include <coroutine>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "common/check.hpp"
#include "sim/frame_pool.hpp"
#include "common/annotate.hpp"

namespace v::sim {

class EventLoop;

/// Thrown out of an awaitable when the owning fiber has been killed; unwinds
/// the process coroutine chain.  Server/process code must not swallow it
/// (catch-all handlers must rethrow).
struct FiberKilled {};

/// Shared state used to observe a fiber from outside and to mark it killed.
struct FiberState {
  bool killed = false;       ///< set by Fiber::kill(); awaitables check it
  bool done = false;         ///< set when the root coroutine finishes
  std::exception_ptr error;  ///< non-kill exception that escaped the root
  /// Owning simulated process (raw pid; 0 = no kernel process).  Set by the
  /// kernel at spawn; read by the ambient log context and the profiler.
  std::uint32_t pid = 0;
  std::uint64_t dispatches = 0;  ///< times the event loop resumed this fiber
  std::uint64_t wall_ns = 0;     ///< cumulative host-CPU time across resumes
};

/// What is executing right now.  One global suffices: the simulation is
/// single-threaded by design (see EventLoop).  `loop` is set around every
/// event; `fiber` around every fiber resume — so VLOG can prefix simulated
/// time and pid, and the profiler can attribute host CPU to fibers.
struct AmbientContext {
  const EventLoop* loop = nullptr;
  const FiberState* fiber = nullptr;
};

V_HOT_PATH
inline AmbientContext& ambient() noexcept {
  static AmbientContext ctx;
  return ctx;
}

/// Opt-in switch for per-resume host-CPU charging (FiberState::wall_ns,
/// read back through Domain::top_fibers).  Two steady_clock reads per
/// fiber dispatch cost more than the rest of a warm park/wake cycle put
/// together, so the clock is only touched when a profiling consumer asked
/// for it; the dispatch COUNT is maintained unconditionally (one
/// increment).  Flip before running the workload to be profiled.
inline bool& fiber_profiling() noexcept {
  static bool enabled = false;
  return enabled;
}

/// RAII marker placed around h.resume() at every resume site (fiber start,
/// Waker wake, DelayAwaiter, WaitQueue, gate handoff): "this fiber runs
/// from here to end of scope".  Nesting-safe (saves/restores the previous
/// fiber) and null-tolerant.  Under fiber_profiling() it also charges
/// host-clock time to the fiber — host time, never simulated time, so profiling cannot
/// perturb the run.
class FiberRunScope {
 public:
  explicit FiberRunScope(FiberState* fiber) noexcept
      : fiber_(fiber), prev_(ambient().fiber) {
    ambient().fiber = fiber;
    if (fiber_ != nullptr && fiber_profiling()) {
      timed_ = true;
      start_ = std::chrono::steady_clock::now();
    }
  }
  FiberRunScope(const FiberRunScope&) = delete;
  FiberRunScope& operator=(const FiberRunScope&) = delete;
  ~FiberRunScope() {
    if (fiber_ != nullptr) {
      ++fiber_->dispatches;
      if (timed_) {
        fiber_->wall_ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start_)
                .count());
      }
    }
    ambient().fiber = prev_;
  }

 private:
  FiberState* fiber_;
  const FiberState* prev_;
  bool timed_ = false;
  std::chrono::steady_clock::time_point start_;
};

/// A lazily-started coroutine returning T, awaited with symmetric transfer.
template <typename T>
class [[nodiscard]] Co {
 public:
  struct promise_type;
  using Handle = std::coroutine_handle<promise_type>;

  Co() noexcept = default;
  explicit Co(Handle h) noexcept : coro_(h) {}
  Co(Co&& other) noexcept : coro_(std::exchange(other.coro_, nullptr)) {}
  Co& operator=(Co&& other) noexcept {
    if (this != &other) {
      destroy();
      coro_ = std::exchange(other.coro_, nullptr);
    }
    return *this;
  }
  Co(const Co&) = delete;
  Co& operator=(const Co&) = delete;
  ~Co() { destroy(); }

  [[nodiscard]] bool valid() const noexcept { return coro_ != nullptr; }

  struct promise_type : PooledFrame {
    std::coroutine_handle<> continuation;
    std::optional<T> value;
    std::exception_ptr error;

    Co get_return_object() { return Co(Handle::from_promise(*this)); }
    std::suspend_always initial_suspend() noexcept { return {}; }
    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      std::coroutine_handle<> await_suspend(Handle h) noexcept {
        auto cont = h.promise().continuation;
        return cont ? cont : std::noop_coroutine();
      }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }
    template <typename U>
    void return_value(U&& v) {
      value.emplace(std::forward<U>(v));
    }
    void unhandled_exception() { error = std::current_exception(); }
  };

  // Awaiting a Co<T> starts it and suspends the caller until it completes.
  bool await_ready() const noexcept { return false; }
  Handle await_suspend(std::coroutine_handle<> caller) noexcept {
    coro_.promise().continuation = caller;
    return coro_;  // symmetric transfer: start the child now
  }
  T await_resume() {
    auto& p = coro_.promise();
    if (p.error) std::rethrow_exception(p.error);
    V_CHECK(p.value.has_value());
    return std::move(*p.value);
  }

 private:
  void destroy() noexcept {
    if (coro_) {
      coro_.destroy();
      coro_ = nullptr;
    }
  }
  Handle coro_ = nullptr;
};

/// Co<void> specialization.
template <>
class [[nodiscard]] Co<void> {
 public:
  struct promise_type;
  using Handle = std::coroutine_handle<promise_type>;

  Co() noexcept = default;
  explicit Co(Handle h) noexcept : coro_(h) {}
  Co(Co&& other) noexcept : coro_(std::exchange(other.coro_, nullptr)) {}
  Co& operator=(Co&& other) noexcept {
    if (this != &other) {
      destroy();
      coro_ = std::exchange(other.coro_, nullptr);
    }
    return *this;
  }
  Co(const Co&) = delete;
  Co& operator=(const Co&) = delete;
  ~Co() { destroy(); }

  [[nodiscard]] bool valid() const noexcept { return coro_ != nullptr; }

  struct promise_type : PooledFrame {
    std::coroutine_handle<> continuation;
    std::exception_ptr error;

    Co get_return_object() { return Co(Handle::from_promise(*this)); }
    std::suspend_always initial_suspend() noexcept { return {}; }
    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      std::coroutine_handle<> await_suspend(Handle h) noexcept {
        auto cont = h.promise().continuation;
        return cont ? cont : std::noop_coroutine();
      }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() { error = std::current_exception(); }
  };

  bool await_ready() const noexcept { return false; }
  Handle await_suspend(std::coroutine_handle<> caller) noexcept {
    coro_.promise().continuation = caller;
    return coro_;
  }
  void await_resume() {
    auto& p = coro_.promise();
    if (p.error) std::rethrow_exception(p.error);
  }

 private:
  void destroy() noexcept {
    if (coro_) {
      coro_.destroy();
      coro_ = nullptr;
    }
  }
  Handle coro_ = nullptr;
};

namespace detail {

/// Root coroutine type for fibers: manually started, frame owned by Fiber.
struct FiberRoot {
  struct promise_type : PooledFrame {
    FiberRoot get_return_object() {
      return FiberRoot{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() noexcept { std::terminate(); }
  };
  std::coroutine_handle<promise_type> handle = nullptr;
};

}  // namespace detail

/// Owns the root coroutine of one simulated process.
///
/// Lifecycle: construct with the process body, call start() (typically from
/// an event), and either let it run to completion or call kill().  A killed
/// fiber unwinds at its *next* resume; the party holding the pending resume
/// (kernel wait record or scheduled event) must still deliver that resume —
/// the kernel's kill path takes care of this.
class Fiber {
 public:
  using OnDone = std::function<void(std::exception_ptr)>;

  /// Create a fiber running `body`.  `on_done` (optional) fires when the
  /// body returns, throws, or finishes unwinding after kill; for a clean
  /// return or a kill the exception_ptr is null.
  explicit Fiber(Co<void> body, OnDone on_done = nullptr)
      : state_(std::make_shared<FiberState>()) {
    root_ = run_root(std::move(body), state_, std::move(on_done)).handle;
  }

  Fiber(Fiber&& other) noexcept
      : root_(std::exchange(other.root_, nullptr)),
        state_(std::move(other.state_)),
        started_(other.started_) {}
  Fiber& operator=(Fiber&& other) noexcept {
    if (this != &other) {
      destroy();
      root_ = std::exchange(other.root_, nullptr);
      state_ = std::move(other.state_);
      started_ = other.started_;
    }
    return *this;
  }
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;
  ~Fiber() { destroy(); }

  /// Begin execution (runs until the first suspension point).
  void start() {
    V_CHECK(!started_);
    started_ = true;
    FiberRunScope scope(state_.get());
    root_.resume();
  }

  /// Mark the fiber killed.  The next resume of any of its awaitables
  /// throws FiberKilled.
  void kill() noexcept { state_->killed = true; }

  [[nodiscard]] bool done() const noexcept { return state_->done; }
  [[nodiscard]] bool killed() const noexcept { return state_->killed; }
  [[nodiscard]] std::exception_ptr error() const noexcept {
    return state_->error;
  }

  /// Shared observer handle; awaitables capture this to honor kill().
  [[nodiscard]] const std::shared_ptr<FiberState>& state() const noexcept {
    return state_;
  }

 private:
  static detail::FiberRoot run_root(Co<void> body,
                                    std::shared_ptr<FiberState> state,
                                    OnDone on_done) {
    std::exception_ptr error;
    try {
      co_await std::move(body);
    } catch (const FiberKilled&) {
      // expected unwind path after kill(); not an error
    } catch (...) {
      error = std::current_exception();
    }
    state->done = true;
    state->error = error;
    if (on_done) on_done(error);
  }

  void destroy() noexcept {
    if (root_) {
      root_.destroy();  // cascades through suspended Co frames via RAII
      root_ = nullptr;
    }
  }

  std::coroutine_handle<detail::FiberRoot::promise_type> root_ = nullptr;
  std::shared_ptr<FiberState> state_;
  bool started_ = false;
};

}  // namespace v::sim
