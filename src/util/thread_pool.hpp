// Fixed-size worker pool plus data-parallel helpers.
//
// The fault-injection campaigns and Monte-Carlo sweeps in this repository are
// embarrassingly parallel over trials; `parallel_for` shares an index range
// between its caller and the pool. Results stay deterministic because
// randomness is derived per-index (see Rng::split), never from thread
// identity.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace wnf {

/// A minimal fixed-size thread pool (no work stealing; FIFO queue).
///
/// Tasks are `void()` closures. `wait_idle()` blocks until the queue is
/// drained and all workers are parked, which is the synchronisation point
/// used by the data-parallel helpers below.
class ThreadPool {
 public:
  /// Spawns `threads` workers (0 means std::thread::hardware_concurrency,
  /// itself clamped to at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for asynchronous execution.
  void submit(std::function<void()> task);

  /// Blocks until all submitted tasks have finished.
  void wait_idle();

  /// Number of worker threads.
  std::size_t size() const { return workers_.size(); }

  /// Process-wide pool, created on first use.
  static ThreadPool& global();

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
};

/// Runs `body(i)` for every i in [begin, end) on the calling thread and
/// min(pool.size(), end - begin) - 1 helper tasks on `pool`. Each index is
/// claimed exactly once, one at a time, from a shared counter, so the
/// caller works alongside the pool instead of blocking while it wakes, and
/// uneven bodies balance. The call returns once every index has run: it
/// waits for the helpers that claimed work, never for the pool to go idle,
/// and a helper the pool starts later runs nothing. Which thread runs an
/// index is unspecified, so bodies must not depend on it. Runs serially
/// when the range has one index or the pool one worker, and when the caller
/// is one of `pool`'s own workers: a nested parallel_for runs inline.
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body);

/// parallel_for over the global pool.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body);

}  // namespace wnf
