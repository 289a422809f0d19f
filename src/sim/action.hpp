// Small-buffer event action: the payload type of every scheduled event.
//
// The event loop schedules tens of millions of closures per run; wrapping
// them in std::function heap-allocates anything over the libstdc++ 16-byte
// small-object threshold — which includes nearly every kernel closure (the
// deliver path captures a whole Envelope).  InlineAction raises the inline
// capacity to fit the largest hot closure in the kernel (sized below, with
// the audit) and is MOVE-ONLY, so the scheduler can move an action into
// and out of its slab node without the copy std::function would force and
// without touching the allocator.
//
// Anything larger than the buffer still works — it falls back to a single
// heap node — and the loop counts both populations (actions_inline /
// actions_heap in EventLoopStats), so an accidentally-fat closure shows up
// in [metrics] instead of silently eating throughput.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include "common/annotate.hpp"

namespace v::sim {

class InlineAction {
 public:
  /// Inline capacity.  Sized for the fattest hot-path closure, the kernel's
  /// deliver/retransmit lambdas: an Envelope (~112 bytes: 32-byte Message,
  /// two segment spans, trace context, binding hint, txn seq) plus a couple
  /// of ids and flags ≈ 140 bytes.  160 keeps the whole Event a neat 192
  /// bytes with headroom for the Envelope to grow a field or two.
  static constexpr std::size_t kInlineSize = 160;
  static constexpr std::size_t kInlineAlign = alignof(std::max_align_t);

  InlineAction() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineAction>>>
  InlineAction(F&& fn) {  // NOLINT(google-explicit-constructor): callable →
                          // action conversion is the whole point
    emplace(std::forward<F>(fn));
  }

  InlineAction(InlineAction&& other) noexcept { move_from(other); }
  InlineAction& operator=(InlineAction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  InlineAction(const InlineAction&) = delete;
  InlineAction& operator=(const InlineAction&) = delete;
  ~InlineAction() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// True when the callable lives in the inline buffer (no heap node).
  [[nodiscard]] bool is_inline() const noexcept {
    return ops_ != nullptr && ops_->inline_storage;
  }

  V_HOT_PATH
  void operator()() { ops_->invoke(buf_); }

  /// Construct `fn` in place in this EMPTY action (the event loop builds
  /// every scheduled callable directly in its slab node this way).
  template <typename F>
  void emplace(F&& fn) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, Fn&>);
    assert(ops_ == nullptr);
    if constexpr (sizeof(Fn) <= kInlineSize && alignof(Fn) <= kInlineAlign &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(fn));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(fn)));
      ops_ = &kHeapOps<Fn>;
    }
  }

 private:
  /// Per-callable-type vtable: one static instance per instantiation.
  /// `relocate` moves the payload into a fresh buffer AND destroys the
  /// source (move + destroy fused: every move the scheduler does is a
  /// relocation, never a reuse of the source).  `trivial_size` is nonzero
  /// when the payload is trivially copyable AND trivially destructible:
  /// the scheduler then relocates with an inline memcpy and skips the
  /// destroy thunk entirely — two fewer indirect calls per event for the
  /// hot kernel closures (wake and deliver both qualify: a coroutine
  /// handle plus raw pointers and PODs).  An empty callable (a captureless
  /// lambda) keeps the thunks: it has no value bytes, so a memcpy of its
  /// one-byte object would read indeterminate memory.
  struct Ops {
    void (*invoke)(void*);
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
    std::size_t trivial_size;
    bool inline_storage;
  };

  template <typename Fn>
  static constexpr Ops kInlineOps{
      [](void* p) { (*static_cast<Fn*>(p))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
        static_cast<Fn*>(src)->~Fn();
      },
      [](void* p) noexcept { static_cast<Fn*>(p)->~Fn(); },
      /*trivial_size=*/std::is_trivially_copyable_v<Fn> &&
              std::is_trivially_destructible_v<Fn> && !std::is_empty_v<Fn>
          ? sizeof(Fn)
          : 0,
      /*inline_storage=*/true,
  };

  template <typename Fn>
  static constexpr Ops kHeapOps{
      [](void* p) { (**static_cast<Fn**>(p))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) Fn*(*static_cast<Fn**>(src));
      },
      [](void* p) noexcept { delete *static_cast<Fn**>(p); },
      /*trivial_size=*/0,
      /*inline_storage=*/false,
  };

  V_HOT_PATH
  void move_from(InlineAction& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      if (ops_->trivial_size != 0) {
        std::memcpy(buf_, other.buf_, ops_->trivial_size);
      } else {
        ops_->relocate(buf_, other.buf_);
      }
      other.ops_ = nullptr;
    }
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->trivial_size == 0) ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  alignas(kInlineAlign) unsigned char buf_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace v::sim
