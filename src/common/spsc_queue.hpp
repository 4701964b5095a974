// Bounded single-producer/single-consumer ring buffer, for a handoff where
// exactly one thread produces and one consumes — cheaper than MpmcQueue.
//
// Concurrency (DESIGN.md §8): intentionally lock-free (two atomic indices,
// acquire/release pairs); outside the lock-rank order because it can never
// block, and exempt from the sync-layer rule for the same reason.
#pragma once

#include <atomic>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

namespace janus {

template <typename T>
class SpscQueue {
 public:
  explicit SpscQueue(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity + 1) cap <<= 1;  // one slot kept empty
    buffer_.resize(cap);
    mask_ = cap - 1;
  }

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  bool try_push(T value) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t next = (head + 1) & mask_;
    if (next == tail_.load(std::memory_order_acquire)) return false;  // full
    buffer_[head] = std::move(value);
    head_.store(next, std::memory_order_release);
    return true;
  }

  std::optional<T> try_pop() {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail == head_.load(std::memory_order_acquire)) return std::nullopt;
    std::optional<T> out{std::move(buffer_[tail])};
    tail_.store((tail + 1) & mask_, std::memory_order_release);
    return out;
  }

  bool empty() const {
    return tail_.load(std::memory_order_acquire) ==
           head_.load(std::memory_order_acquire);
  }

  /// Racy but monotonic-enough depth estimate: the load-balancing signal
  /// behind the server.worker_queue_depth gauges (never used for control
  /// flow — only observability, in the spirit of "balance queuing, not
  /// load").
  std::size_t size_approx() const {
    const std::size_t head = head_.load(std::memory_order_acquire);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    return (head - tail) & mask_;
  }

  std::size_t capacity() const { return mask_; }

 private:
  std::vector<T> buffer_;
  std::size_t mask_;
  alignas(64) std::atomic<std::size_t> head_{0};
  alignas(64) std::atomic<std::size_t> tail_{0};
};

}  // namespace janus
