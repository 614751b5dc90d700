// Unit tests for lbmv/util/thread_pool.h.

#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "lbmv/util/thread_pool.h"

namespace {

using lbmv::util::parallel_for;
using lbmv::util::ThreadPool;

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, PropagatesTaskExceptionThroughFuture) {
  ThreadPool pool(2);
  auto future =
      pool.submit([] { throw std::runtime_error("task exploded"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, DrainsQueueOnDestruction) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      (void)pool.submit([&counter] { ++counter; });
    }
  }  // destructor must wait for queued work
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPool, SingleThreadPoolIsSequentialAndCorrect) {
  ThreadPool pool(1);
  std::vector<int> order;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 10; ++i) {
    futures.push_back(pool.submit([&order, i] { order.push_back(i); }));
  }
  for (auto& f : futures) f.get();
  std::vector<int> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);  // FIFO on one thread
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(8);
  const std::size_t n = 10'000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(pool, 0, n, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool touched = false;
  parallel_for(pool, 5, 5, [&](std::size_t) { touched = true; });
  parallel_for(pool, 7, 3, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ParallelFor, RangeSmallerThanPoolStillWorks) {
  ThreadPool pool(16);
  std::vector<std::atomic<int>> hits(3);
  parallel_for(pool, 0, 3, [&](std::size_t i) { ++hits[i]; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, RethrowsFirstBodyException) {
  ThreadPool pool(4);
  EXPECT_THROW(parallel_for(pool, 0, 100,
                            [](std::size_t i) {
                              if (i == 42) {
                                throw std::runtime_error("boom");
                              }
                            }),
               std::runtime_error);
}

TEST(ParallelFor, GlobalPoolOverloadWorks) {
  std::atomic<std::size_t> sum{0};
  parallel_for(0, 1000, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 999u * 1000u / 2u);
}

TEST(ParallelFor, MemberGrainZeroAutoChunks) {
  ThreadPool pool(4);
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(0, n, [&](std::size_t i) { ++hits[i]; }, /*grain=*/0);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, ExplicitGrainCoversEveryIndexOnce) {
  ThreadPool pool(4);
  const std::size_t n = 1003;  // not a multiple of any grain below
  for (const std::size_t grain : {1ul, 7ul, 64ul, 5000ul}) {
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(0, n, [&](std::size_t i) { ++hits[i]; }, grain);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "grain " << grain << " index " << i;
    }
  }
}

TEST(ParallelFor, GrainAtLeastRangeRunsInline) {
  // One chunk means no task handoff: the body sees the calling thread.
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(8);
  pool.parallel_for(0, seen.size(),
                    [&](std::size_t i) { seen[i] = std::this_thread::get_id(); },
                    /*grain=*/seen.size());
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(ParallelFor, CoarseGrainRethrowsBodyException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [](std::size_t i) {
                                   if (i == 99) {
                                     throw std::runtime_error("boom");
                                   }
                                 },
                                 /*grain=*/8),
               std::runtime_error);
}

TEST(ParallelFor, ParallelSumMatchesSequential) {
  ThreadPool pool(6);
  const std::size_t n = 4096;
  std::vector<double> out(n);
  parallel_for(pool, 0, n, [&](std::size_t i) {
    out[i] = static_cast<double>(i) * 0.5;
  });
  double total = 0.0;
  for (double v : out) total += v;
  EXPECT_DOUBLE_EQ(total, 0.5 * static_cast<double>(n - 1) *
                              static_cast<double>(n) / 2.0);
}

TEST(ParallelFor, NestedCallFromOwnWorkersRunsInline) {
  // Both workers of a two-thread pool are pinned by the outer tasks before
  // either starts its inner parallel_for, so no free worker is left: inner
  // chunks queued on the pool would never run.  They must run inline on
  // the calling worker instead.
  ThreadPool pool(2);
  std::latch start(2);
  std::vector<std::vector<int>> hits(2, std::vector<int>(64, 0));
  std::vector<std::thread::id> outer_thread(2);
  std::vector<int> foreign_inner(2, 0);
  pool.parallel_for(
      0, 2,
      [&](std::size_t o) {
        outer_thread[o] = std::this_thread::get_id();
        start.arrive_and_wait();
        pool.parallel_for(
            0, 64,
            [&](std::size_t i) {
              ++hits[o][i];
              if (std::this_thread::get_id() != outer_thread[o]) {
                ++foreign_inner[o];
              }
            },
            /*grain=*/1);
      },
      /*grain=*/1);
  for (std::size_t o = 0; o < 2; ++o) {
    EXPECT_EQ(foreign_inner[o], 0) << "outer task " << o;
    for (std::size_t i = 0; i < 64; ++i) {
      ASSERT_EQ(hits[o][i], 1) << "outer " << o << " index " << i;
    }
  }
}

TEST(ParallelFor, NestedInlineCallKeepsTheFirstErrorRule) {
  // Inline chunks still all run, and the first failing chunk's error wins.
  ThreadPool pool(1);
  std::atomic<int> ran{0};
  auto future = pool.submit([&] {
    pool.parallel_for(
        0, 8,
        [&](std::size_t i) {
          ++ran;
          if (i == 2) throw std::runtime_error("chunk 2");
          if (i == 5) throw std::logic_error("chunk 5");
        },
        /*grain=*/1);
  });
  try {
    future.get();
    ADD_FAILURE() << "nested parallel_for did not rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk 2");
  }
  EXPECT_EQ(ran.load(), 8);
}

}  // namespace
