// Unit tests for the parallel execution layer (common/parallel.h): pool
// lifecycle, chunking/grain edge cases, exception propagation, nested-call
// safety, and the bit-identical-at-any-thread-count contract.
#include "common/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

namespace blaeu {
namespace {

TEST(NumThreadsFromEnvTest, ParsesPositiveIntegers) {
  EXPECT_EQ(NumThreadsFromEnv("6", 4), 6u);
  EXPECT_EQ(NumThreadsFromEnv("1", 4), 1u);
}

TEST(NumThreadsFromEnvTest, FallsBackOnInvalidInput) {
  EXPECT_EQ(NumThreadsFromEnv(nullptr, 4), 4u);
  EXPECT_EQ(NumThreadsFromEnv("", 4), 4u);
  EXPECT_EQ(NumThreadsFromEnv("0", 4), 4u);
  EXPECT_EQ(NumThreadsFromEnv("-2", 4), 4u);
  EXPECT_EQ(NumThreadsFromEnv("many", 4), 4u);
  EXPECT_EQ(NumThreadsFromEnv("3x", 4), 4u);
}

TEST(DefaultNumThreadsTest, AtLeastOne) {
  EXPECT_GE(DefaultNumThreads(), 1u);
  EXPECT_EQ(EffectiveNumThreads(0), DefaultNumThreads());
  EXPECT_EQ(EffectiveNumThreads(3), 3u);
}

TEST(ThreadPoolTest, StartsLazily) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3u);
  EXPECT_FALSE(pool.started());  // construction spawns nothing

  std::promise<void> ran;
  pool.Submit([&] { ran.set_value(); });
  EXPECT_TRUE(pool.started());
  ASSERT_EQ(ran.get_future().wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
}  // destructor joins the workers: the test terminating cleanly is the
   // lifecycle assertion

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  constexpr int kTasks = 100;
  std::atomic<int> done{0};
  std::promise<void> all_done;
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&] {
      if (done.fetch_add(1) + 1 == kTasks) all_done.set_value();
    });
  }
  ASSERT_EQ(all_done.get_future().wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_EQ(done.load(), kTasks);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  constexpr size_t kN = 1000;
  std::vector<int> hits(kN, 0);
  ParallelFor(
      0, kN, 7,
      [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) ++hits[i];
      },
      8);
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i], 1) << "index " << i;
}

TEST(ParallelForTest, EmptyRangeNeverInvokesBody) {
  bool called = false;
  ParallelFor(5, 5, 4, [&](size_t, size_t) { called = true; }, 8);
  ParallelFor(7, 3, 4, [&](size_t, size_t) { called = true; }, 8);
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, GrainZeroBehavesLikeGrainOne) {
  std::vector<std::pair<size_t, size_t>> chunks;
  ParallelFor(
      0, 4, 0,
      [&](size_t lo, size_t hi) { chunks.emplace_back(lo, hi); },
      1);
  ASSERT_EQ(chunks.size(), 4u);
  for (size_t c = 0; c < 4; ++c) {
    EXPECT_EQ(chunks[c], std::make_pair(c, c + 1));
  }
}

TEST(ParallelForTest, GrainLargerThanRangeIsOneChunk) {
  std::vector<std::pair<size_t, size_t>> chunks;
  ParallelFor(
      3, 10, 100,
      [&](size_t lo, size_t hi) { chunks.emplace_back(lo, hi); },
      8);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0], std::make_pair(size_t{3}, size_t{10}));
}

TEST(ParallelForTest, ChunkBoundariesIndependentOfThreadCount) {
  // The determinism contract: same range + grain => same chunks, whether
  // the loop runs inline or on 8 threads.
  auto chunks_at = [](size_t threads) {
    std::mutex mu;
    std::set<std::pair<size_t, size_t>> chunks;
    ParallelFor(
        11, 250, 9,
        [&](size_t lo, size_t hi) {
          std::lock_guard<std::mutex> lock(mu);
          chunks.emplace(lo, hi);
        },
        threads);
    return chunks;
  };
  auto serial = chunks_at(1);
  auto parallel = chunks_at(8);
  EXPECT_EQ(serial, parallel);
  // Chunks tile [11, 250) with no gaps or overlap.
  size_t expect_lo = 11;
  for (const auto& [lo, hi] : serial) {
    EXPECT_EQ(lo, expect_lo);
    EXPECT_LE(hi - lo, 9u);
    expect_lo = hi;
  }
  EXPECT_EQ(expect_lo, 250u);
}

TEST(ParallelForTest, PropagatesExceptionsFromWorkers) {
  for (size_t threads : {size_t{1}, size_t{8}}) {
    EXPECT_THROW(
        ParallelFor(
            0, 100, 1,
            [](size_t lo, size_t) {
              if (lo == 37) throw std::runtime_error("chunk failed");
            },
            threads),
        std::runtime_error)
        << "threads=" << threads;
  }
}

TEST(ParallelForTest, ExceptionCancelsRemainingChunks) {
  std::atomic<int> ran{0};
  EXPECT_THROW(ParallelFor(
                   0, 10000, 1,
                   [&](size_t, size_t) {
                     ran.fetch_add(1);
                     throw std::runtime_error("boom");
                   },
                   4),
               std::runtime_error);
  // The first failure cancels the rest; far fewer than all chunks run.
  EXPECT_LT(ran.load(), 10000);
}

TEST(ParallelForTest, NestedCallsRunInlineAndComplete) {
  constexpr size_t kOuter = 16;
  constexpr size_t kInner = 100;
  std::vector<size_t> sums(kOuter, 0);
  std::vector<unsigned> inner_threads(kOuter, 0);
  ParallelFor(
      0, kOuter, 1,
      [&](size_t lo, size_t hi) {
        for (size_t o = lo; o < hi; ++o) {
          std::set<std::thread::id> ids;
          std::mutex mu;
          ParallelFor(
              0, kInner, 1,
              [&](size_t ilo, size_t ihi) {
                std::lock_guard<std::mutex> lock(mu);
                ids.insert(std::this_thread::get_id());
                for (size_t i = ilo; i < ihi; ++i) sums[o] += i;
              },
              8);
          inner_threads[o] = static_cast<unsigned>(ids.size());
        }
      },
      8);
  for (size_t o = 0; o < kOuter; ++o) {
    EXPECT_EQ(sums[o], kInner * (kInner - 1) / 2);
    // The inner loop ran inline on the chunk's thread, not on the pool.
    EXPECT_EQ(inner_threads[o], 1u);
  }
}

TEST(ParallelForTest, ActuallyUsesHelperThreads) {
  ThreadPool pool(4);
  std::mutex mu;
  std::set<std::thread::id> ids;
  ParallelFor(
      0, 64, 1,
      [&](size_t, size_t) {
        {
          std::lock_guard<std::mutex> lock(mu);
          ids.insert(std::this_thread::get_id());
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      },
      4, &pool);
  EXPECT_GT(ids.size(), 1u);
}

}  // namespace
}  // namespace blaeu
