#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/minkey.h"
#include "core/refine_engine.h"
#include "data/generators/tabular.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace qikey {
namespace {

TEST(ThreadPoolTest, ResolveThreadsMapsZeroToUsableCpus) {
  EXPECT_EQ(ResolveThreads(3), 3u);
  EXPECT_EQ(ResolveThreads(0), UsableCpuCount());
  EXPECT_GE(UsableCpuCount(), 1u);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(10000);
  ThreadPool::ParallelFor(&pool, hits.size(), [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForMinGrainBoundsChunkSizeAndStillCovers) {
  ThreadPool pool(8);
  for (size_t min_grain : {1u, 7u, 64u, 1000u, 100000u}) {
    std::vector<std::atomic<int>> hits(10000);
    std::mutex mu;
    std::vector<std::pair<size_t, size_t>> chunks;
    ThreadPool::ParallelFor(
        &pool, hits.size(),
        [&](size_t b, size_t e) {
          for (size_t i = b; i < e; ++i) hits[i].fetch_add(1);
          std::lock_guard<std::mutex> lock(mu);
          chunks.emplace_back(b, e);
        },
        min_grain);
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1) << min_grain;
    for (const auto& [b, e] : chunks) {
      // Every chunk except possibly the final remainder honors the
      // grain floor.
      if (e != hits.size()) {
        EXPECT_GE(e - b, min_grain);
      }
    }
    // A range at or below the grain must not fan out at all.
    if (min_grain >= hits.size()) {
      EXPECT_EQ(chunks.size(), 1u);
    }
  }
}

TEST(ThreadPoolTest, ParallelForManyBatchesReuseThePool) {
  // The batch path enqueues helper tasks; back-to-back batches (the
  // serve pattern) must not leak state between batches or deadlock
  // when stale helpers from batch k drain during batch k+1.
  ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    std::atomic<size_t> sum{0};
    ThreadPool::ParallelFor(
        &pool, 97, [&](size_t b, size_t e) { sum.fetch_add(e - b); }, 4);
    ASSERT_EQ(sum.load(), 97u) << round;
  }
}

TEST(ThreadPoolTest, ParallelForInlineWithoutPool) {
  std::vector<int> hits(100, 0);
  ThreadPool::ParallelFor(nullptr, hits.size(), [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) ++hits[i];
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 100);
}

TEST(ThreadPoolTest, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  ThreadPool::ParallelFor(&pool, 0, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ParallelForPropagatesCallbackException) {
  ThreadPool pool(4);
  EXPECT_THROW(ThreadPool::ParallelFor(
                   &pool, 1000,
                   [&](size_t begin, size_t end) {
                     for (size_t i = begin; i < end; ++i) {
                       if (i == 500) throw std::invalid_argument("mid-batch");
                     }
                   }),
               std::invalid_argument);
  // And inline (no pool) the exception propagates directly.
  EXPECT_THROW(ThreadPool::ParallelFor(
                   nullptr, 10,
                   [](size_t, size_t) { throw std::invalid_argument("x"); }),
               std::invalid_argument);
}

TEST(ThreadPoolTest, ConcurrentParallelForsDoNotStealExceptions) {
  // Two callers share one pool; only one of them throws. The failing
  // caller must see its exception every time, and the healthy caller
  // must never see it (exceptions are captured per ParallelFor call,
  // never parked in pool state).
  ThreadPool pool(4);
  std::atomic<int> bad_caught{0};
  std::atomic<bool> healthy_threw{false};
  std::thread bad([&] {
    for (int round = 0; round < 50; ++round) {
      try {
        ThreadPool::ParallelFor(&pool, 64, [](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            if (i == 10) throw std::runtime_error("bad batch");
          }
        });
      } catch (const std::runtime_error&) {
        bad_caught.fetch_add(1);
      }
    }
  });
  std::thread good([&] {
    for (int round = 0; round < 50; ++round) {
      try {
        ThreadPool::ParallelFor(&pool, 64, [](size_t, size_t) {});
      } catch (...) {
        healthy_threw.store(true);
      }
    }
  });
  bad.join();
  good.join();
  EXPECT_EQ(bad_caught.load(), 50);
  EXPECT_FALSE(healthy_threw.load());
}

TEST(ThreadPoolTest, ThrowingQueryBatchCallbackDoesNotKillThePool) {
  // The serve/pipeline pattern: a QueryBatch-style fan-out whose chunk
  // callback throws must fail the batch without wedging the pool for
  // the next, well-behaved batch.
  ThreadPool pool(4);
  std::atomic<int> queries{0};
  auto query_batch = [&](bool poisoned) {
    ThreadPool::ParallelFor(&pool, 256, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        if (poisoned && i == 128) {
          throw std::runtime_error("query evaluation failed");
        }
        queries.fetch_add(1);
      }
    });
  };
  EXPECT_THROW(query_batch(true), std::runtime_error);
  int after_failure = queries.load();
  EXPECT_GT(after_failure, 0);
  query_batch(false);
  EXPECT_EQ(queries.load(), after_failure + 256);
}

TEST(ThreadPoolTest, ParallelGreedyMatchesSerial) {
  // The parallel gain computation must be bit-identical to serial.
  Rng rng(5);
  TabularSpec spec = CpsLikeSpec(1500);
  Dataset d = MakeTabular(spec, &rng);

  RefineEngine serial(d);
  auto serial_result = serial.RunGreedy();

  ThreadPool pool(8);
  RefineEngine parallel(d);
  parallel.set_thread_pool(&pool);
  auto parallel_result = parallel.RunGreedy();

  EXPECT_EQ(serial_result.chosen, parallel_result.chosen);
  ASSERT_EQ(serial_result.steps.size(), parallel_result.steps.size());
  for (size_t i = 0; i < serial_result.steps.size(); ++i) {
    EXPECT_EQ(serial_result.steps[i].chosen,
              parallel_result.steps[i].chosen);
    EXPECT_EQ(serial_result.steps[i].gain, parallel_result.steps[i].gain);
  }
  EXPECT_EQ(serial_result.remaining_unseparated,
            parallel_result.remaining_unseparated);
}

}  // namespace
}  // namespace qikey
