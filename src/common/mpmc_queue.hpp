// Bounded multi-producer/multi-consumer FIFOs.
//
// Two implementations:
//  * MpmcQueue     — Vyukov bounded lock-free ring; non-blocking try_push /
//                    try_pop.
//  * BlockingQueue — mutex+condvar with blocking pop, shutdown support and
//                    optional bounded capacity. The HTTP server, the thread
//                    pool and WAL replication hand work over it. (The QoS
//                    server's request FIFO is the kernel receive queue,
//                    DESIGN.md §9.)
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <deque>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "common/sync.hpp"

namespace janus {

template <typename T>
class MpmcQueue {
 public:
  /// Capacity is rounded up to the next power of two.
  explicit MpmcQueue(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    mask_ = cap - 1;
    cells_ = std::make_unique<Cell[]>(cap);
    for (std::size_t i = 0; i < cap; ++i) {
      cells_[i].sequence.store(i, std::memory_order_relaxed);
    }
  }

  MpmcQueue(const MpmcQueue&) = delete;
  MpmcQueue& operator=(const MpmcQueue&) = delete;

  bool try_push(T value) {
    Cell* cell;
    std::size_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      std::size_t seq = cell->sequence.load(std::memory_order_acquire);
      std::intptr_t diff = static_cast<std::intptr_t>(seq) -
                           static_cast<std::intptr_t>(pos);
      if (diff == 0) {
        if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          break;
        }
      } else if (diff < 0) {
        return false;  // full
      } else {
        pos = enqueue_pos_.load(std::memory_order_relaxed);
      }
    }
    cell->value = std::move(value);
    cell->sequence.store(pos + 1, std::memory_order_release);
    return true;
  }

  std::optional<T> try_pop() {
    Cell* cell;
    std::size_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      std::size_t seq = cell->sequence.load(std::memory_order_acquire);
      std::intptr_t diff = static_cast<std::intptr_t>(seq) -
                           static_cast<std::intptr_t>(pos + 1);
      if (diff == 0) {
        if (dequeue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          break;
        }
      } else if (diff < 0) {
        return std::nullopt;  // empty
      } else {
        pos = dequeue_pos_.load(std::memory_order_relaxed);
      }
    }
    std::optional<T> out{std::move(cell->value)};
    cell->sequence.store(pos + mask_ + 1, std::memory_order_release);
    return out;
  }

  std::size_t capacity() const { return mask_ + 1; }

  /// Approximate size (racy; for metrics only).
  std::size_t size_approx() const {
    auto e = enqueue_pos_.load(std::memory_order_relaxed);
    auto d = dequeue_pos_.load(std::memory_order_relaxed);
    return e >= d ? e - d : 0;
  }

 private:
  struct Cell {
    std::atomic<std::size_t> sequence{0};
    T value{};
  };

  static constexpr std::size_t kCacheLine = 64;
  std::unique_ptr<Cell[]> cells_;
  std::size_t mask_;
  alignas(kCacheLine) std::atomic<std::size_t> enqueue_pos_{0};
  alignas(kCacheLine) std::atomic<std::size_t> dequeue_pos_{0};
};

template <typename T>
class BlockingQueue {
 public:
  /// capacity == 0 means unbounded.
  explicit BlockingQueue(std::size_t capacity = 0) : capacity_(capacity) {}

  /// Returns false if the queue is shut down or full (bounded).
  bool try_push(T value) {
    {
      MutexLock lock(mu_);
      if (shutdown_) return false;
      if (capacity_ != 0 && items_.size() >= capacity_) return false;
      items_.push_back(std::move(value));
    }
    cv_.notify_one();
    return true;
  }

  /// Bulk push under one lock: moves items from `items` until the queue is
  /// full or all are taken. Returns the number accepted (0 if shut down);
  /// callers count the remainder as dropped. Paired with a bulk receive, a
  /// drained batch costs one lock acquisition instead of one per item.
  std::size_t try_push_many(std::vector<T>& items) {
    std::size_t accepted = 0;
    {
      MutexLock lock(mu_);
      if (shutdown_) return 0;
      for (auto& item : items) {
        if (capacity_ != 0 && items_.size() >= capacity_) break;
        items_.push_back(std::move(item));
        ++accepted;
      }
    }
    if (accepted == 1) {
      cv_.notify_one();
    } else if (accepted > 1) {
      cv_.notify_all();
    }
    return accepted;
  }

  /// Bulk pop: blocks until the queue is non-empty or shut down, then moves
  /// up to `max` items into `out` (appended). Returns the number popped; 0
  /// only after shutdown once the queue has drained.
  std::size_t pop_many(std::vector<T>& out, std::size_t max) {
    MutexLock lock(mu_);
    while (items_.empty() && !shutdown_) cv_.wait(mu_);
    std::size_t popped = 0;
    while (!items_.empty() && popped < max) {
      out.push_back(std::move(items_.front()));
      items_.pop_front();
      ++popped;
    }
    return popped;
  }

  /// Blocks until the queue is non-empty or shut down. Returns nullopt only
  /// after shutdown once the queue has drained.
  std::optional<T> pop() {
    MutexLock lock(mu_);
    while (items_.empty() && !shutdown_) cv_.wait(mu_);
    if (items_.empty()) return std::nullopt;
    T out = std::move(items_.front());
    items_.pop_front();
    return out;
  }

  /// Blocks up to `timeout`; nullopt on timeout or drained shutdown.
  std::optional<T> pop_for(Duration timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    MutexLock lock(mu_);
    while (items_.empty() && !shutdown_) {
      if (cv_.wait_until(mu_, deadline) == std::cv_status::timeout) break;
    }
    if (items_.empty()) return std::nullopt;
    T out = std::move(items_.front());
    items_.pop_front();
    return out;
  }

  std::optional<T> try_pop() {
    MutexLock lock(mu_);
    if (items_.empty()) return std::nullopt;
    T out = std::move(items_.front());
    items_.pop_front();
    return out;
  }

  /// After shutdown, pushes fail; pops drain remaining items then return
  /// nullopt.
  void shutdown() {
    {
      MutexLock lock(mu_);
      shutdown_ = true;
    }
    cv_.notify_all();
  }

  bool is_shutdown() const {
    MutexLock lock(mu_);
    return shutdown_;
  }

  std::size_t size() const {
    MutexLock lock(mu_);
    return items_.size();
  }

 private:
  mutable Mutex mu_{LockRank::kQueue, "common.queue"};
  CondVar cv_;
  std::deque<T> items_ JANUS_GUARDED_BY(mu_);
  std::size_t capacity_;
  bool shutdown_ JANUS_GUARDED_BY(mu_) = false;
};

}  // namespace janus
