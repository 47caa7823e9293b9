#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <memory>

#include "util/contract.hpp"

namespace wnf {
namespace {

// The pool whose worker_loop runs on this thread, if any.
thread_local const ThreadPool* tls_owner = nullptr;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  WNF_EXPECTS(task != nullptr);
  {
    std::lock_guard lock(mutex_);
    WNF_EXPECTS(!stopping_);
    queue_.push_back(std::move(task));
  }
  work_available_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  all_done_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  tls_owner = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      work_available_.wait(lock,
                           [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    task();
    {
      std::lock_guard lock(mutex_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) all_done_.notify_all();
    }
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body) {
  WNF_EXPECTS(begin <= end);
  const std::size_t n = end - begin;
  if (n == 0) return;
  const std::size_t helpers = std::min(pool.size(), n) - 1;
  if (helpers == 0 || tls_owner == &pool) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }

  // The caller and its helper tasks claim indices one at a time from one
  // counter. The helpers share this state by ownership: one the pool starts
  // after the call has closed finds `closed` and touches nothing else.
  struct Claims {
    std::atomic<std::size_t> next;
    std::size_t end = 0;
    const std::function<void(std::size_t)>* body = nullptr;
    std::mutex mutex;
    std::condition_variable idle;
    std::size_t claiming = 0;  ///< helpers inside run(); guarded by mutex
    bool closed = false;       ///< no helper may start; guarded by mutex

    void run() {
      for (std::size_t i = next.fetch_add(1); i < end; i = next.fetch_add(1)) {
        (*body)(i);
      }
    }
  };
  const auto claims = std::make_shared<Claims>();
  claims->next = begin;
  claims->end = end;
  claims->body = &body;
  for (std::size_t h = 0; h < helpers; ++h) {
    pool.submit([claims] {
      {
        std::lock_guard lock(claims->mutex);
        if (claims->closed) return;
        ++claims->claiming;
      }
      claims->run();
      std::lock_guard lock(claims->mutex);
      // Notified under the lock: the caller may destroy nothing it shares
      // with this helper before the helper lets go of the mutex.
      if (--claims->claiming == 0) claims->idle.notify_all();
    });
  }
  // Closes the call on every way out of the caller's own claims, so no
  // helper runs `body` after this frame is gone.
  struct Close {
    Claims& claims;
    ~Close() {
      claims.next = claims.end;  // after a throwing body: stop the helpers
      std::unique_lock lock(claims.mutex);
      claims.closed = true;
      claims.idle.wait(lock, [this] { return claims.claiming == 0; });
    }
  } close{*claims};
  claims->run();
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body) {
  parallel_for(ThreadPool::global(), begin, end, body);
}

}  // namespace wnf
