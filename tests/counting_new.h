// Replaces the global operator new (every form) with one that counts each
// call, on every thread, in g_allocations.  Include it in exactly one
// translation unit of a test binary: that binary then stands alone, and no
// other suite shares its allocator.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  std::size_t align = static_cast<std::size_t>(al);
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, align, n == 0 ? 1 : n) != 0) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
