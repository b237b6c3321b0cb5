// Bounded single-producer / single-consumer ring of reusable slots: the
// ingest-to-worker hand-off inside FleetService.  One ingest thread fills
// slots, one shard worker consumes them; indices are monotonically
// increasing 64-bit counters masked into a power-of-two slot array, so
// full/empty are plain subtractions and the only synchronization is one
// release store per publish()/release() (plus an acquire load when the
// producer/consumer's cached view of the other side runs dry).
//
// Slots are worked on in place and never move: the producer claim()s the
// slot at the tail, writes it, and publish()es it; the consumer peek()s a
// contiguous run of published slots, processes them where they lie, and
// release()s them back.
//
// The bounded capacity is what makes backpressure real: when the ring is
// full the producer must either wait (Backpressure::kBlock) or shed the
// packet (Backpressure::kDropTail) — exactly the choice a line-rate switch
// faces when an output queue fills.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace banzai {

template <typename T>
class SpscRing {
 public:
  // Capacity is rounded up to the next power of two (minimum 1).
  explicit SpscRing(std::size_t capacity) {
    std::size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  std::size_t capacity() const { return slots_.size(); }

  // Slot storage by index in [0, capacity()): the indices claim() and
  // peek() hand out.
  T& operator[](std::size_t index) { return slots_[index]; }

  // Producer side.  Sets `index` to the free slot at the tail and returns
  // true, or returns false when the ring is full.  The slot is the
  // producer's until publish(); claiming again before that returns the same
  // slot.
  bool claim(std::size_t& index) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_cache_ == slots_.size()) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ == slots_.size()) return false;
    }
    index = static_cast<std::size_t>(tail & mask_);
    return true;
  }

  // Producer side: hands the claimed slot to the consumer.
  void publish() {
    tail_.store(tail_.load(std::memory_order_relaxed) + 1,
                std::memory_order_release);
  }

  // Consumer side.  Returns how many published slots follow the head in one
  // contiguous run — at most `max`, and stopping at the end of the slot
  // array — and sets `index` to the first of them; 0 when the ring is empty.
  std::size_t peek(std::size_t max, std::size_t& index) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) return 0;
    }
    index = static_cast<std::size_t>(head & mask_);
    return std::min({max, static_cast<std::size_t>(tail_cache_ - head),
                     slots_.size() - index});
  }

  // Consumer side: returns the first n peeked slots to the producer.
  void release(std::size_t n) {
    head_.store(head_.load(std::memory_order_relaxed) + n,
                std::memory_order_release);
  }

  bool empty() const {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }

  // Approximate occupancy: exact only when both sides are quiescent, which
  // is all the stats reporting needs.
  std::size_t size() const {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    const std::uint64_t n = tail - head;
    return n > slots_.size() ? slots_.size() : static_cast<std::size_t>(n);
  }

 private:
  std::size_t mask_ = 0;
  std::vector<T> slots_;
  // Producer and consumer indices live on separate cache lines, as do the
  // single-owner cached views of the opposite index (head_cache_ belongs to
  // the producer, tail_cache_ to the consumer).
  alignas(64) std::atomic<std::uint64_t> head_{0};
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  alignas(64) std::uint64_t head_cache_ = 0;
  alignas(64) std::uint64_t tail_cache_ = 0;
};

}  // namespace banzai
