#pragma once

/// \file parallel.hpp
/// The one fork-join loop behind every parallel level of flexopt: campaign
/// scenarios, portfolio members and CostEvaluator::evaluate_many batches.
/// A nested call (a portfolio inside a campaign worker) forks again within
/// the thread budget its caller split off; no thread outlives its call.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace flexopt {

/// A thread-count option resolved: `requested` when positive, hardware
/// concurrency otherwise; never below 1.
[[nodiscard]] inline int resolve_threads(int requested) {
  if (requested > 0) return requested;
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

/// Calls `body(i, worker)` once for every i in [0, n) on min(n, threads)
/// workers and returns when all calls have finished.  The calling thread is
/// worker 0, the others are helper threads started for this call (fewer if
/// the system refuses one), and workers claim indices in ascending order
/// from one shared counter.  Each worker id belongs to one thread, so state
/// indexed by it needs no lock; the join orders every write a body made
/// before the return.  A body's exception stops further claims and is
/// rethrown here once every worker has finished.
template <class Body>
void parallel_for(std::size_t n, int threads, Body&& body) {
  const std::size_t workers = std::min(n, static_cast<std::size_t>(std::max(1, threads)));
  std::atomic<std::size_t> next{0};
  std::mutex failure_mutex;
  std::exception_ptr failure;  // guarded by failure_mutex
  auto drain = [&](std::size_t worker) {
    try {
      for (std::size_t i = next++; i < n; i = next++) body(i, worker);
    } catch (...) {
      next = n;
      const std::lock_guard<std::mutex> lock(failure_mutex);
      if (!failure) failure = std::current_exception();
    }
  };
  std::vector<std::thread> helpers;
  if (workers > 1) helpers.reserve(workers - 1);
  try {
    for (std::size_t w = 1; w < workers; ++w) helpers.emplace_back(drain, w);
  } catch (const std::system_error&) {
    // The started workers and the caller claim every index regardless.
  }
  drain(0);
  for (std::thread& helper : helpers) helper.join();
  if (failure) std::rethrow_exception(failure);
}

}  // namespace flexopt
