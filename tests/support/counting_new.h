#ifndef DKF_TESTS_SUPPORT_COUNTING_NEW_H_
#define DKF_TESTS_SUPPORT_COUNTING_NEW_H_

// Counting replacements of the global operator new/delete for the
// allocation-free perf contracts. Include from exactly one translation
// unit of a test binary: the definitions replace the allocator for the
// whole binary.
//
// Every heap allocation in the binary passes through these counting
// hooks, which count calls and requested bytes, so a zero delta across a
// window of ticks proves the window never touched the allocator. They forward to malloc/free, which keeps
// sanitizer builds checking every block. Not inlined: once a delete
// inlines into a delete-expression, GCC's -Wmismatched-new-delete sees
// free() applied to the result of operator new.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_allocated_bytes{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  return operator new(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace dkf {

/// Heap allocations made by `ticks` calls of `tick()`.
template <typename Tick>
std::uint64_t AllocationsOver(int ticks, const Tick& tick) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int t = 0; t < ticks; ++t) tick();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

/// The heap allocations one call of `body()` makes, and their requested
/// bytes.
struct AllocationCount {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};
template <typename Body>
AllocationCount CountAllocations(const Body& body) {
  const std::uint64_t calls = g_allocations.load(std::memory_order_relaxed);
  const std::uint64_t bytes =
      g_allocated_bytes.load(std::memory_order_relaxed);
  body();
  return {g_allocations.load(std::memory_order_relaxed) - calls,
          g_allocated_bytes.load(std::memory_order_relaxed) - bytes};
}

}  // namespace dkf

#endif  // DKF_TESTS_SUPPORT_COUNTING_NEW_H_
