// Parallel sweep execution for the bench harness.
//
// Every figure/ablation in the repository is a grid of independent
// (Scenario, seed) cells; nothing couples one cell's simulation to
// another. ParallelRunner exploits that: it fans the cells out across a
// thread pool while preserving bit-for-bit determinism per cell —
// run_transfer() is a pure function of its Scenario (each run owns its
// Scheduler and derives every RNG stream from the scenario seed, and
// the kern::SkBuff block pool is per-thread), so a cell computes the
// same RunResult regardless of which worker executes it or in what
// order. Results come back in input order; a parallel sweep prints the
// exact bytes the serial sweep would.
#pragma once

#include <cstddef>
#include <vector>

#include "harness/scenario.hpp"

namespace hrmc::harness {

class ParallelRunner {
 public:
  /// `threads == 0` resolves the worker count from the harness budget
  /// (thread_budget(): HRMC_BENCH_THREADS if set — 1 forces serial
  /// execution, e.g. for timing a baseline — otherwise
  /// hardware_concurrency()). A nonzero count is taken as-is.
  explicit ParallelRunner(unsigned threads = 0);

  [[nodiscard]] unsigned threads() const { return threads_; }

  /// Runs run_transfer() on every cell; results in input order. The
  /// first exception thrown by any cell (in input order) is rethrown
  /// after all workers finish.
  [[nodiscard]] std::vector<RunResult> run_all(
      const std::vector<Scenario>& cells) const;

 private:
  unsigned threads_;
};

}  // namespace hrmc::harness
