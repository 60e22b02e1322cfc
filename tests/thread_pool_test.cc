#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sched.h>

#include <gtest/gtest.h>

namespace cpdg::util {
namespace {

using ChunkList = std::vector<std::pair<int64_t, int64_t>>;

ChunkList CollectChunks(ThreadPool* pool, int64_t begin, int64_t end,
                        int64_t grain) {
  std::mutex mu;
  ChunkList chunks;
  pool->ParallelFor(begin, end, grain, [&](int64_t lo, int64_t hi) {
    std::lock_guard<std::mutex> lk(mu);
    chunks.emplace_back(lo, hi);
  });
  std::sort(chunks.begin(), chunks.end());
  return chunks;
}

TEST(ThreadPoolTest, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  // Each element belongs to exactly one chunk, and chunks own disjoint
  // ranges, so plain int increments are race-free by construction.
  std::vector<int> counts(1000, 0);
  pool.ParallelFor(0, 1000, 7, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) ++counts[static_cast<size_t>(i)];
  });
  for (int c : counts) EXPECT_EQ(c, 1);
}

TEST(ThreadPoolTest, ChunkBoundariesDependOnlyOnGrain) {
  ChunkList expected;
  for (int64_t lo = 3; lo < 100; lo += 7) {
    expected.emplace_back(lo, std::min<int64_t>(100, lo + 7));
  }
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(CollectChunks(&pool, 3, 100, 7), expected)
        << "threads=" << threads;
  }
}

TEST(ThreadPoolTest, SerialFallbackIteratesChunksInOrder) {
  ThreadPool pool(1);
  ChunkList chunks;
  pool.ParallelFor(0, 20, 6, [&](int64_t lo, int64_t hi) {
    chunks.emplace_back(lo, hi);
  });
  EXPECT_EQ(chunks, (ChunkList{{0, 6}, {6, 12}, {12, 18}, {18, 20}}));
}

TEST(ThreadPoolTest, EmptyRangeInvokesNothing) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(5, 5, 1, [&](int64_t, int64_t) { ++calls; });
  pool.ParallelFor(7, 3, 1, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::vector<int64_t> inner_sums(8, 0);
  pool.ParallelFor(0, 8, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t slot = lo; slot < hi; ++slot) {
      // The nested call degrades to the serial fallback on this worker;
      // its chunks still cover the range exactly once.
      pool.ParallelFor(0, 100, 9, [&, slot](int64_t ilo, int64_t ihi) {
        for (int64_t i = ilo; i < ihi; ++i) {
          inner_sums[static_cast<size_t>(slot)] += i;
        }
      });
    }
  });
  for (int64_t s : inner_sums) EXPECT_EQ(s, 99 * 100 / 2);
}

TEST(ThreadPoolTest, PerChunkReductionMergesIdenticallyAcrossThreadCounts) {
  // The canonical deterministic-reduction pattern: accumulate per chunk
  // (chunk id = lo / grain), then merge in chunk order. Since chunk
  // boundaries are thread-count independent, the merged float result must
  // be bitwise identical for every pool size.
  constexpr int64_t kN = 10000;
  constexpr int64_t kGrain = 128;
  auto reduce = [&](int threads) {
    ThreadPool pool(threads);
    std::vector<float> partial((kN + kGrain - 1) / kGrain, 0.0f);
    pool.ParallelFor(0, kN, kGrain, [&](int64_t lo, int64_t hi) {
      float acc = 0.0f;
      for (int64_t i = lo; i < hi; ++i) {
        acc += 1.0f / (1.0f + static_cast<float>(i));
      }
      partial[static_cast<size_t>(lo / kGrain)] = acc;
    });
    float total = 0.0f;
    for (float p : partial) total += p;
    return total;
  };
  float serial = reduce(1);
  for (int threads : {2, 4, 8}) {
    float parallel = reduce(threads);
    EXPECT_EQ(serial, parallel) << "threads=" << threads;
  }
}

TEST(ThreadPoolTest, DefaultNumThreadsHonorsEnvKnob) {
  const char* old = std::getenv("CPDG_NUM_THREADS");
  std::string saved = old != nullptr ? old : "";
  setenv("CPDG_NUM_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::DefaultNumThreads(), 3);
  setenv("CPDG_NUM_THREADS", "1", 1);
  EXPECT_EQ(ThreadPool::DefaultNumThreads(), 1);
  unsetenv("CPDG_NUM_THREADS");
  EXPECT_GE(ThreadPool::DefaultNumThreads(), 1);
  if (old != nullptr) setenv("CPDG_NUM_THREADS", saved.c_str(), 1);
}

TEST(ThreadPoolTest, GlobalPoolCanBeResized) {
  ThreadPool::SetGlobalNumThreads(2);
  EXPECT_EQ(ThreadPool::Global().num_threads(), 2);
  std::vector<int> counts(64, 0);
  ThreadPool::Global().ParallelFor(0, 64, 4, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) ++counts[static_cast<size_t>(i)];
  });
  for (int c : counts) EXPECT_EQ(c, 1);
  ThreadPool::SetGlobalNumThreads(ThreadPool::DefaultNumThreads());
}

// Regions issued back to back find the workers still spinning from the
// previous one; every region must still cover its range exactly once and
// complete before ParallelFor returns.
TEST(ThreadPoolTest, BackToBackRegionsWhileWorkersSpin) {
  ThreadPool pool(4);
  std::vector<int64_t> counts(64, 0);
  for (int region = 0; region < 2000; ++region) {
    pool.ParallelFor(0, 64, 4, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) ++counts[static_cast<size_t>(i)];
    });
  }
  for (int64_t c : counts) EXPECT_EQ(c, 2000);
}

// Regions spaced wider than the spin window find the workers parked on the
// condition variable; they must be woken and run their own stripes (chunk c
// runs on participant c mod Q, and participant 0 is the caller).
TEST(ThreadPoolTest, RegionsSpacedWiderThanSpinWindowWakeParkedWorkers) {
  ThreadPool pool(3);
  const std::thread::id caller = std::this_thread::get_id();
  for (int region = 0; region < 20; ++region) {
    std::this_thread::sleep_for(3 * ThreadPool::kSpinWindow);
    std::vector<std::thread::id> ran_on(3);
    pool.ParallelFor(0, 3, 1, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        ran_on[static_cast<size_t>(i)] = std::this_thread::get_id();
      }
    });
    EXPECT_EQ(ran_on[0], caller) << "region " << region;
    EXPECT_NE(ran_on[1], caller) << "region " << region;
    EXPECT_NE(ran_on[2], caller) << "region " << region;
    EXPECT_NE(ran_on[1], ran_on[2]) << "region " << region;
  }
}

// Destroying a pool right after a region, while its workers still spin,
// must stop and join them promptly rather than hang or touch freed state.
TEST(ThreadPoolTest, DestructionWhileWorkersSpin) {
  for (int round = 0; round < 200; ++round) {
    ThreadPool pool(4);
    std::atomic<int64_t> sum{0};
    pool.ParallelFor(0, 100, 10, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        sum.fetch_add(i, std::memory_order_relaxed);
      }
    });
    EXPECT_EQ(sum.load(), 99 * 100 / 2);
  }
  // A pool that never ran a region: its workers only ever spun or slept.
  for (int round = 0; round < 50; ++round) ThreadPool idle(4);
}

TEST(ThreadPoolTest, SetGlobalNumThreadsWhileWorkersSpin) {
  for (int round = 0; round < 100; ++round) {
    ThreadPool::SetGlobalNumThreads(1 + round % 4);
    std::vector<int> counts(32, 0);
    ThreadPool::Global().ParallelFor(0, 32, 3, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) ++counts[static_cast<size_t>(i)];
    });
    for (int c : counts) ASSERT_EQ(c, 1) << "round " << round;
  }
  ThreadPool::SetGlobalNumThreads(ThreadPool::DefaultNumThreads());
}

// Regions with fewer chunks than threads enroll fewer participants; the
// surplus workers claim the region under the lock and go back to spinning.
// Interleave them with full regions so a worker that sat one region out
// must still join the next.
TEST(ThreadPoolTest, RegionsWithFewerChunksThanThreads) {
  ThreadPool pool(6);
  for (int region = 0; region < 1000; ++region) {
    const int64_t chunks = 2 + region % 6;  // 2..7 chunks on 6 threads
    std::vector<int> counts(static_cast<size_t>(chunks * 5), 0);
    pool.ParallelFor(0, chunks * 5, 5, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) ++counts[static_cast<size_t>(i)];
    });
    for (int c : counts) ASSERT_EQ(c, 1) << "region " << region;
  }
}

// A pool built on a thread pinned to one CPU is wider than the CPUs it may
// use, so it never spins; every region must still run on its workers and
// cover its range exactly once.
TEST(ThreadPoolTest, PoolWiderThanAllowedCpusParksInsteadOfSpinning) {
  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  cpu_set_t one;
  CPU_ZERO(&one);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &saved)) {
      CPU_SET(cpu, &one);
      break;
    }
  }
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  {
    ThreadPool pool(4);
    std::vector<int64_t> counts(64, 0);
    for (int region = 0; region < 500; ++region) {
      pool.ParallelFor(0, 64, 4, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) ++counts[static_cast<size_t>(i)];
      });
    }
    for (int64_t c : counts) EXPECT_EQ(c, 500);
  }
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
}

// Busy threads outnumbering the CPUs preempt spinning workers, which can
// turn spinning off for the pool; regions issued while that happens, and
// after the busy threads stop, must each cover their range exactly once.
TEST(ThreadPoolTest, RegionsStayExactWhileBusyThreadsPreemptSpinners) {
  const int busy_count = static_cast<int>(
      std::clamp<unsigned>(2 * std::thread::hardware_concurrency(), 2, 8));
  std::atomic<bool> stop{false};
  std::vector<std::thread> busy;
  for (int t = 0; t < busy_count; ++t) {
    busy.emplace_back([&stop] {
      while (!stop.load(std::memory_order_relaxed)) {
      }
    });
  }
  ThreadPool pool(4);
  std::vector<int64_t> counts(64, 0);
  for (int region = 0; region < 2000; ++region) {
    if (region == 1000) {
      stop.store(true, std::memory_order_relaxed);
      for (std::thread& t : busy) t.join();
    }
    pool.ParallelFor(0, 64, 4, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) ++counts[static_cast<size_t>(i)];
    });
  }
  for (int64_t c : counts) EXPECT_EQ(c, 2000);
}

}  // namespace
}  // namespace cpdg::util
