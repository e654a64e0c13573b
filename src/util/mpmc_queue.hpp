#pragma once
// MpmcQueue: bounded multi-producer/multi-consumer queue with batched pops —
// the arrival side of the serving runtime (DESIGN.md §9).
//
// Producers (request threads) push single items and block when the queue is
// full: the bound IS the backpressure policy, converting overload into
// producer-side latency instead of unbounded memory growth. Consumers
// (batching workers) pop *batches*, work-conserving: pop_batch blocks only
// for the first item, then takes whatever else is already queued, up to
// `max_batch`, and returns. A batch is the work that arrived while the
// consumer was busy — one item when idle, up to max_batch under load — and
// there is no straggler timer (DESIGN.md §9 says why). max_batch is the one
// policy knob; it bounds per-batch latency under load.
//
// The queue is a fixed ring over pre-sized storage: steady-state operation
// allocates nothing. Synchronization is a mutex plus two condition
// variables — at serving batch sizes the lock is taken once per *batch* on
// the consumer side, so lock-free fanciness would optimize the cheap part.
// The lock discipline is machine-checked: every ring field is
// SMORE_GUARDED_BY(mutex_) and the wait predicates are explicit loops, so
// the clang thread-safety build proves no field is ever touched unlocked
// (DESIGN.md §15).
//
// close() wakes everyone: pushes fail from then on, pops drain what is left
// and then report exhaustion. This gives the server's graceful shutdown —
// every in-flight request is still handed to a worker.

#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/annotations.hpp"
#include "util/mutex.hpp"

namespace smore {

/// Outcome of a non-blocking push — the queue's own atomic decision, taken
/// under its lock. Callers that map a refusal to a shed reason must use this
/// rather than re-reading closed() afterwards: a close racing in between the
/// failed push and the re-check would mislabel a capacity refusal as a
/// shutdown refusal.
enum class QueuePush { kAccepted, kFull, kClosed };

/// Bounded MPMC ring with blocking push and batched pop. T must be
/// default-constructible and move-assignable.
template <typename T>
class MpmcQueue {
 public:
  /// Throws std::invalid_argument when capacity is 0.
  explicit MpmcQueue(std::size_t capacity)
      : buffer_(capacity), capacity_(capacity) {
    if (capacity == 0) {
      throw std::invalid_argument("MpmcQueue: capacity must be positive");
    }
  }

  MpmcQueue(const MpmcQueue&) = delete;
  MpmcQueue& operator=(const MpmcQueue&) = delete;

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  [[nodiscard]] std::size_t size() const {
    const MutexLock lock(mutex_);
    return count_;
  }

  [[nodiscard]] bool closed() const {
    const MutexLock lock(mutex_);
    return closed_;
  }

  /// Blocking push: waits while the queue is full (backpressure). Returns
  /// false iff the queue was closed (the item is dropped then).
  bool push(T item) {
    MutexLock lock(mutex_);
    while (count_ >= capacity_ && !closed_) not_full_.wait(mutex_);
    if (closed_) return false;
    place(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push: refuses (kFull / kClosed, item dropped) instead of
  /// waiting. Callers implement load-shedding on top of this; the returned
  /// outcome is the authoritative refusal reason.
  QueuePush try_push(T item) {
    {
      const MutexLock lock(mutex_);
      if (closed_) return QueuePush::kClosed;
      if (count_ == capacity_) return QueuePush::kFull;
      place(std::move(item));
    }
    not_empty_.notify_one();
    return QueuePush::kAccepted;
  }

  /// Batched pop: blocks until at least one item is available (or the queue
  /// is closed and drained), then takes what is queued, up to `max_batch`,
  /// without waiting for more. Appends to `out` and returns the number of
  /// items taken; 0 means closed-and-empty (the consumer should exit).
  std::size_t pop_batch(std::vector<T>& out, std::size_t max_batch) {
    if (max_batch == 0) max_batch = 1;
    std::size_t taken = 0;
    {
      const MutexLock lock(mutex_);
      while (count_ == 0 && !closed_) not_empty_.wait(mutex_);
      taken = take(out, max_batch);
    }
    if (taken != 0) not_full_.notify_all();
    return taken;  // 0 only when closed and drained
  }

  /// Non-blocking batched pop: takes whatever is immediately available (up
  /// to `max_batch`), appends to `out`, returns the count — 0 when the queue
  /// is momentarily empty (closed or not). The multi-tenant shard workers
  /// use this to top up their per-tenant pending lists between batches
  /// without ever sleeping while they still have work in hand.
  std::size_t try_pop_batch(std::vector<T>& out, std::size_t max_batch) {
    if (max_batch == 0) max_batch = 1;
    std::size_t taken = 0;
    {
      const MutexLock lock(mutex_);
      taken = take(out, max_batch);
    }
    if (taken != 0) not_full_.notify_all();
    return taken;
  }

  /// Close the queue: subsequent pushes fail, pops drain the remainder.
  /// Idempotent.
  void close() {
    {
      const MutexLock lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

 private:
  void place(T&& item) SMORE_REQUIRES(mutex_) {
    buffer_[(head_ + count_) % capacity_] = std::move(item);
    ++count_;
  }

  std::size_t take(std::vector<T>& out, std::size_t want)
      SMORE_REQUIRES(mutex_) {
    const std::size_t n = want < count_ ? want : count_;
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(std::move(buffer_[head_]));
      head_ = (head_ + 1) % capacity_;
    }
    count_ -= n;
    return n;
  }

  mutable Mutex mutex_;
  CondVar not_empty_;
  CondVar not_full_;
  std::vector<T> buffer_ SMORE_GUARDED_BY(mutex_);
  std::size_t capacity_;  // immutable after construction
  std::size_t head_ SMORE_GUARDED_BY(mutex_) = 0;
  std::size_t count_ SMORE_GUARDED_BY(mutex_) = 0;
  bool closed_ SMORE_GUARDED_BY(mutex_) = false;
};

}  // namespace smore
