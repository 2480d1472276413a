// Fixed-size worker pool used by the batch explorer (one task per trace)
// and the serve daemon (one task per connection).
//
// Semantics:
//  * submit() enqueues a task; workers drain the queue FIFO.
//  * wait_idle() blocks until the queue is empty and no task is running,
//    then rethrows the first task exception (if any) and clears it.
//  * parallel_for(n, fn) runs fn(0..n-1) across the pool and waits; with a
//    pool of size 1 (or n <= 1) it degenerates to a sequential loop, which
//    makes thread-count-independence tests trivial to anchor.
//
// Tasks must not call submit()/wait_idle() on their own pool (no nested
// scheduling); a task may construct and drive a *distinct* pool.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace addm::core {

class ThreadPool {
 public:
  /// `threads == 0` means std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(std::size_t threads = 0) {
    if (threads == 0) {
      threads = std::thread::hardware_concurrency();
      if (threads == 0) threads = 1;
    }
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i)
      workers_.emplace_back([this] { worker_loop(); });
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  std::size_t size() const { return workers_.size(); }

  /// Tasks queued plus tasks currently executing.  A momentary snapshot —
  /// by the time the caller acts it may be stale — so it is only suitable
  /// for liveness probes (the serve daemon's idle-timeout check), never for
  /// synchronization; use wait_idle() for that.
  std::size_t busy() const {
    std::lock_guard<std::mutex> lk(mu_);
    return queue_.size() + running_;
  }

  void submit(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      queue_.push_back(std::move(task));
    }
    cv_.notify_one();
  }

  /// Blocks until all submitted work has finished. Rethrows the first
  /// exception raised by any task since the previous wait_idle().
  void wait_idle() {
    std::unique_lock<std::mutex> lk(mu_);
    idle_cv_.wait(lk, [this] { return queue_.empty() && running_ == 0; });
    if (first_error_) {
      std::exception_ptr e = first_error_;
      first_error_ = nullptr;
      std::rethrow_exception(e);
    }
  }

  /// Runs fn(i) for i in [0, n) across the pool, then waits.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
    if (n == 0) return;
    if (size() == 1 || n == 1) {
      for (std::size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    for (std::size_t i = 0; i < n; ++i)
      submit([&fn, i] { fn(i); });
    wait_idle();
  }

 private:
  void worker_loop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [this] { return stopping_ || !queue_.empty(); });
        if (stopping_ && queue_.empty()) return;
        task = std::move(queue_.front());
        queue_.pop_front();
        ++running_;
      }
      try {
        task();
      } catch (...) {
        std::lock_guard<std::mutex> lk(mu_);
        if (!first_error_) first_error_ = std::current_exception();
      }
      {
        std::lock_guard<std::mutex> lk(mu_);
        --running_;
        if (queue_.empty() && running_ == 0) idle_cv_.notify_all();
      }
    }
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  std::size_t running_ = 0;
  bool stopping_ = false;
  std::exception_ptr first_error_;
};

}  // namespace addm::core
