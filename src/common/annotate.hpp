// V-lint annotation vocabulary (DESIGN.md 4j).
//
// These macros mark the invariant-bearing functions that tools/vlint
// proves properties about.  Under clang they lower to [[clang::annotate]]
// so a libclang-based checker can find them in the AST; under every other
// compiler they expand to nothing and the program is unchanged.  The
// textual vlint engine (tools/vlint/vlint.py) reads the macro tokens
// straight from the source, so the checks run even on a GCC-only host.
//
// The vocabulary:
//
//   V_GATED_MUTATION  The function is a gated name-mutation hook: it runs
//                     under the per-(context,leaf) mutation gate, must call
//                     note_name_write() on every path before returning
//                     success, and every call site must bump the context
//                     generation when it succeeds (rule gate-generation).
//                     Being under the gate also forbids kernel sends and
//                     WaitQueue waits in its body (rule suspend-under-gate).
//
//   V_HOT_PATH        The function is on a measured hot path (event-loop
//                     dispatch, InlineAction invoke, kernel send/reply,
//                     warm cached open).  Its body must not allocate
//                     (operator new, make_unique/make_shared), construct a
//                     std::function, or mutate a node-based container, and
//                     any project function it calls must itself be
//                     V_HOT_PATH or explicitly allowed (rule hot-path-alloc).
//
//   V_NO_SUSPEND      The function must contain no suspension point at all
//                     (no co_await): callers rely on it running atomically
//                     between two statements of their own (rule
//                     suspend-under-gate).
//
//   V_BORROWS_SPAN    The coroutine takes a reference / std::span /
//                     string_view parameter and deliberately uses it after
//                     a suspension point.  The annotation is a documented
//                     contract that the caller keeps the referent alive
//                     across every co_await (e.g. the kernel pins a
//                     sender's read segment for the whole transaction).
//                     Without it, rule coro-param-lifetime flags the use.
#pragma once

#if defined(__clang__)
#define V_GATED_MUTATION [[clang::annotate("v::gated_mutation")]]
#define V_HOT_PATH [[clang::annotate("v::hot_path")]]
#define V_NO_SUSPEND [[clang::annotate("v::no_suspend")]]
#define V_BORROWS_SPAN [[clang::annotate("v::borrows_span")]]
#else
#define V_GATED_MUTATION
#define V_HOT_PATH
#define V_NO_SUSPEND
#define V_BORROWS_SPAN
#endif
