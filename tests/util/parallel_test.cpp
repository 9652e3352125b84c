#include "flexopt/util/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <map>
#include <stdexcept>
#include <thread>
#include <vector>

namespace flexopt {
namespace {

constexpr std::size_t kSizes[] = {0, 1, 7, 100};
constexpr int kThreads[] = {1, 2, 8};

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  for (const std::size_t n : kSizes) {
    for (const int threads : kThreads) {
      std::vector<std::atomic<int>> runs(n);
      parallel_for(n, threads, [&](std::size_t i, std::size_t) { runs[i].fetch_add(1); });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(runs[i].load(), 1) << "n " << n << ", threads " << threads << ", i " << i;
      }
    }
  }
}

TEST(ParallelFor, WorkersStayBelowMinOfIndicesAndThreads) {
  for (const std::size_t n : kSizes) {
    for (const int threads : kThreads) {
      std::vector<std::size_t> worker_of(n);
      parallel_for(n, threads, [&](std::size_t i, std::size_t worker) { worker_of[i] = worker; });
      const std::size_t workers = std::min(n, static_cast<std::size_t>(threads));
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_LT(worker_of[i], workers) << "n " << n << ", threads " << threads;
      }
    }
  }
}

TEST(ParallelFor, WorkerZeroIsTheCallingThreadAndEachWorkerOneThread) {
  const std::thread::id caller = std::this_thread::get_id();
  for (const int threads : kThreads) {
    constexpr std::size_t n = 100;
    std::vector<std::thread::id> thread_of(n);
    std::vector<std::size_t> worker_of(n);
    parallel_for(n, threads, [&](std::size_t i, std::size_t worker) {
      thread_of[i] = std::this_thread::get_id();
      worker_of[i] = worker;
    });
    std::map<std::size_t, std::thread::id> thread_of_worker;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(worker_of[i] == 0, thread_of[i] == caller) << "threads " << threads;
      const auto [it, first] = thread_of_worker.emplace(worker_of[i], thread_of[i]);
      EXPECT_TRUE(first || it->second == thread_of[i]) << "worker " << worker_of[i];
    }
  }
  // One index or one thread: the caller runs everything.
  std::thread::id ran_on;
  parallel_for(1, 8, [&](std::size_t, std::size_t) { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, caller);
}

TEST(ParallelFor, EachWorkerClaimsAscendingIndices) {
  for (const int threads : kThreads) {
    constexpr std::size_t n = 100;
    std::vector<std::vector<std::size_t>> claimed(static_cast<std::size_t>(threads));
    parallel_for(n, threads, [&](std::size_t i, std::size_t worker) {
      claimed[worker].push_back(i);
    });
    for (const std::vector<std::size_t>& indices : claimed) {
      EXPECT_TRUE(std::is_sorted(indices.begin(), indices.end())) << "threads " << threads;
    }
    if (threads == 1) {
      ASSERT_EQ(claimed[0].size(), n);
      for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(claimed[0][i], i);
    }
  }
}

TEST(ParallelFor, NestedLoopCompletes) {
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 16;
  std::vector<std::atomic<int>> runs(kOuter * kInner);
  parallel_for(kOuter, 4, [&](std::size_t i, std::size_t) {
    parallel_for(kInner, 2, [&](std::size_t j, std::size_t) { runs[i * kInner + j].fetch_add(1); });
  });
  for (const std::atomic<int>& r : runs) EXPECT_EQ(r.load(), 1);
}

void throw_at_three(std::size_t i, std::size_t) {
  if (i == 3) throw std::runtime_error("index 3");
}

TEST(ParallelFor, RethrowsABodyExceptionOnTheCaller) {
  for (const int threads : kThreads) {
    EXPECT_THROW(parallel_for(100, threads, throw_at_three), std::runtime_error)
        << "threads " << threads;
  }
}

TEST(ResolveThreads, PositiveAsGivenOtherwiseHardwareAtLeastOne) {
  EXPECT_EQ(resolve_threads(3), 3);
  EXPECT_GE(resolve_threads(0), 1);
  EXPECT_GE(resolve_threads(-1), 1);
  EXPECT_EQ(resolve_threads(0), resolve_threads(-1));
}

}  // namespace
}  // namespace flexopt
