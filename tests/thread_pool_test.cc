// Unit tests for util/thread_pool: every index visited exactly once by the
// plain and chunked ParallelFor forms, exclusive worker slots, Submit/Wait
// draining, and thread-count clamping.

#include <atomic>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "util/thread_pool.h"

namespace mvrc {
namespace {

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  constexpr int64_t kCount = 10'000;
  std::vector<std::atomic<int>> visits(kCount);
  pool.ParallelFor(kCount, [&visits](int64_t i) { visits[i].fetch_add(1); });
  for (int64_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForHandlesEmptyAndSingleItem) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](int64_t) { FAIL() << "no items to visit"; });
  std::atomic<int> calls{0};
  pool.ParallelFor(1, [&calls](int64_t i) {
    EXPECT_EQ(i, 0);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPoolTest, SubmitAndWaitDrainsQueue) {
  ThreadPool pool(3);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&done] { done.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPoolTest, ClampsThreadCountToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  EXPECT_GE(ThreadPool::ResolveThreadCount(0), 1);
  EXPECT_EQ(ThreadPool::ResolveThreadCount(5), 5);
}

TEST(ParallelForChunkedTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (int64_t count : {0, 1, 5, 64, 1000}) {
    for (int64_t grain : {0, 1, 3, 16, 2000}) {
      std::vector<std::atomic<int>> hits(count);
      pool.ParallelForChunked(count, grain, [&hits](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      });
      for (int64_t i = 0; i < count; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "count=" << count << " grain=" << grain;
      }
    }
  }
}

TEST(ParallelForChunkedTest, WorkerSlotsAreExclusivePerChunk) {
  ThreadPool pool(3);
  constexpr int kCount = 500;
  std::vector<int> slot_of(kCount, -1);
  std::vector<std::atomic<int>> in_slot(3);
  std::atomic<bool> overlapped{false};
  pool.ParallelForWorkersChunked(kCount, 7, [&](int worker, int64_t begin, int64_t end) {
    if (in_slot[worker].fetch_add(1) != 0) overlapped = true;
    for (int64_t i = begin; i < end; ++i) slot_of[i] = worker;
    in_slot[worker].fetch_sub(1);
  });
  EXPECT_FALSE(overlapped.load());
  for (int i = 0; i < kCount; ++i) {
    EXPECT_GE(slot_of[i], 0);
    EXPECT_LT(slot_of[i], 3);
  }
}

}  // namespace
}  // namespace mvrc
