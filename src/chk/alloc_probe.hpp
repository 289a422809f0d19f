// V-check layer: heap-allocation probe for the data path (DESIGN.md §4l).
//
// PR "data-path raw speed" claims the warm packet path allocates NOTHING:
// envelope slots come from the Domain slab, delivery closures fit
// InlineAction's buffer, mailboxes are intrusive lists, name bytes ride the
// envelope.  A claim like that rots silently — one grown lambda capture or
// one std::string temporary and the claim is false with no test the wiser.
// This probe makes the claim executable: it counts every global operator
// new/delete, and test_alloc_probe asserts a ZERO delta across warm
// ping-pong transactions.
//
// Linking rules (deliberate): alloc_probe.cpp lives in the vnames_chk
// static library, so its replacement operator new/delete are linked ONLY
// into binaries that reference a symbol from the TU (i.e. call
// alloc_counters()).  Benchmarks and the simulator keep the stock
// allocator; only the probe test pays for counting.
//
// Under AddressSanitizer the probe deactivates (alloc_probe_active() is
// false and the operators are not replaced): ASan's own interposed
// allocator must stay in charge for poisoning/redzones to work — the same
// policy as sim::FramePool.
#pragma once

#include <cstdint>

namespace v::chk {

struct AllocCounters {
  std::uint64_t allocations = 0;  // operator new / new[] calls
  std::uint64_t frees = 0;        // operator delete / delete[] calls
  std::uint64_t bytes = 0;        // sum of requested sizes
};

/// Snapshot of the process-wide counters.  All zeros when the probe is
/// inactive (ASan builds).
[[nodiscard]] AllocCounters alloc_counters() noexcept;

/// True when the replacement operators are actually installed in this
/// binary (non-ASan build that links the probe TU).
[[nodiscard]] bool alloc_probe_active() noexcept;

}  // namespace v::chk
