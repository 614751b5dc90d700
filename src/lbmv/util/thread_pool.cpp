#include "lbmv/util/thread_pool.h"

#include <algorithm>

#include "lbmv/obs/probes.h"
#include "lbmv/util/error.h"

namespace lbmv::util {
namespace {

/// The pool whose worker loop runs on this thread (nullptr off the pools).
thread_local const ThreadPool* tl_owner = nullptr;

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
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  auto future = packaged.get_future();
  {
    std::lock_guard lock(mutex_);
    LBMV_REQUIRE(!stop_, "submit on a stopped ThreadPool");
    tasks_.push(std::move(packaged));
  }
  cv_.notify_one();
  return future;
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::worker_loop() {
  tl_owner = this;
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stop_ set and queue drained
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    if (obs::enabled()) obs::PoolProbes::get().tasks.inc();
    task();  // exceptions are captured in the packaged_task's future
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& body,
                              std::size_t grain) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  if (obs::enabled()) obs::PoolProbes::get().parallel_fors.inc();
  if (grain == 0) {
    // Automatic grain: at most 4 chunks per worker for load balancing.
    const std::size_t max_chunks = std::max<std::size_t>(1, thread_count() * 4);
    grain = (n + max_chunks - 1) / max_chunks;
  }
  // One chunk runs inline (no pool round-trip), and so does a call from
  // one of this pool's own workers: queuing its chunks and blocking on them
  // could leave every worker waiting on work no free worker is left to run.
  const bool run_inline = grain >= n || tl_owner == this;
  std::vector<std::future<void>> futures;
  if (!run_inline) futures.reserve((n + grain - 1) / grain);
  std::exception_ptr first_error;
  for (std::size_t lo = begin; lo < end;) {
    const std::size_t hi = lo + std::min(grain, end - lo);
    if (obs::enabled()) {
      obs::PoolProbes::get().chunk_size.record(static_cast<double>(hi - lo));
    }
    auto chunk = [lo, hi, &body] {
      for (std::size_t i = lo; i < hi; ++i) body(i);
    };
    if (!run_inline) {
      futures.push_back(submit(chunk));
    } else {
      try {
        chunk();
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    lo = hi;
  }
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body) {
  pool.parallel_for(begin, end, body);
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body) {
  ThreadPool::global().parallel_for(begin, end, body);
}

}  // namespace lbmv::util
