#include "harness/parallel.hpp"

#include <atomic>
#include <exception>
#include <thread>

#include "harness/thread_budget.hpp"

namespace hrmc::harness {

ParallelRunner::ParallelRunner(unsigned threads)
    : threads_(threads != 0 ? threads : thread_budget()) {}

std::vector<RunResult> ParallelRunner::run_all(
    const std::vector<Scenario>& cells) const {
  std::vector<RunResult> results(cells.size());
  if (cells.empty()) return results;

  const unsigned workers = std::min<std::size_t>(threads_, cells.size());
  if (workers <= 1) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      results[i] = run_transfer(cells[i]);
    }
    return results;
  }

  // Dynamic work stealing off a shared index: cells vary widely in cost
  // (a 40 MB / 64K-buffer cell runs ~10x a 10 MB / 1M one), so static
  // striping would leave workers idle at the tail of a sweep.
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(cells.size());
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= cells.size()) return;
        try {
          results[i] = run_transfer(cells[i]);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();

  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return results;
}

}  // namespace hrmc::harness
