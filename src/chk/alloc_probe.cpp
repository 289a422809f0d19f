// Replacement global allocation operators that count (see alloc_probe.hpp
// for the linking and sanitizer rules).  The simulator is single-threaded
// by design, so plain counters suffice.

#include "chk/alloc_probe.hpp"

#include <cstdlib>
#include <new>

// Mirror sim::FramePool's sanitizer detection: under ASan the interposed
// allocator must not be displaced.
#if defined(__SANITIZE_ADDRESS__)
#define V_ALLOC_PROBE_INSTALLED 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define V_ALLOC_PROBE_INSTALLED 0
#else
#define V_ALLOC_PROBE_INSTALLED 1
#endif
#else
#define V_ALLOC_PROBE_INSTALLED 1
#endif

namespace {
v::chk::AllocCounters g_counters;
}  // namespace

namespace v::chk {

AllocCounters alloc_counters() noexcept { return g_counters; }

bool alloc_probe_active() noexcept { return V_ALLOC_PROBE_INSTALLED != 0; }

}  // namespace v::chk

#if V_ALLOC_PROBE_INSTALLED

namespace {

void* counted_alloc(std::size_t size) {
  ++g_counters.allocations;
  g_counters.bytes += size;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}

void counted_free(void* ptr) noexcept {
  if (ptr == nullptr) return;
  ++g_counters.frees;
  std::free(ptr);
}

void* counted_alloc_aligned(std::size_t size, std::align_val_t align) {
  ++g_counters.allocations;
  g_counters.bytes += size;
  const std::size_t a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, align);
}

void operator delete(void* ptr) noexcept { counted_free(ptr); }
void operator delete[](void* ptr) noexcept { counted_free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { counted_free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { counted_free(ptr); }
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  counted_free(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  counted_free(ptr);
}
void operator delete(void* ptr, std::align_val_t) noexcept {
  counted_free(ptr);
}
void operator delete[](void* ptr, std::align_val_t) noexcept {
  counted_free(ptr);
}
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  counted_free(ptr);
}
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  counted_free(ptr);
}

#endif  // V_ALLOC_PROBE_INSTALLED
