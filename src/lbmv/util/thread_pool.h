#pragma once

/// \file thread_pool.h
/// A small work-stealing-free thread pool and a blocking parallel_for.
///
/// lbmv's heavy loops — truthfulness audit grids, frugality sweeps, Monte
/// Carlo replications — are embarrassingly parallel over independent
/// parameter points.  parallel_for splits an index range into contiguous
/// blocks and runs them on the pool; determinism is preserved because each
/// index writes only its own output slot and RNG streams are split per index.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace lbmv::util {

/// Fixed-size pool of worker threads executing submitted tasks FIFO.
class ThreadPool {
 public:
  /// Create a pool with \p threads workers (default: hardware concurrency,
  /// at least 1).  Threads are joined on destruction after draining queued
  /// work.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task; the returned future completes when it has run.
  /// Exceptions thrown by the task propagate through the future.
  std::future<void> submit(std::function<void()> task);

  /// Run body(i) for every i in [begin, end) across the pool, blocking until
  /// all iterations finish.
  ///
  /// \p grain controls the chunking: each submitted task covers at least
  /// \p grain consecutive indices.  grain == 0 picks automatically —
  /// ceil(n / (4 * thread_count)) — which favours load balancing for
  /// fine-grained bodies.  Pass a larger grain when each iteration is tiny
  /// (so per-task overhead does not dominate) or when iterations share
  /// per-chunk state worth amortising.
  ///
  /// The first exception thrown by any iteration is rethrown on the calling
  /// thread (remaining chunks still run to completion).  body must be safe
  /// to call concurrently for distinct i.
  ///
  /// Called from one of this pool's own workers (a parallel_for nested in
  /// another, or in a submitted task), it runs every chunk inline on that
  /// worker, in order and with the same error rule, instead of queuing
  /// chunks the worker would then block on — so nesting cannot deadlock.
  /// Blocking on a submit() future from a worker still can.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body,
                    std::size_t grain = 0);

  [[nodiscard]] std::size_t thread_count() const { return workers_.size(); }

  /// A process-wide default pool, created on first use.
  static ThreadPool& global();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Free-function convenience: pool.parallel_for with automatic grain.
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body);

/// parallel_for on the global pool.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body);

}  // namespace lbmv::util
