// Process-wide thread budget for the harness's sweep pool
// (ParallelRunner). It comes from one place — HRMC_BENCH_THREADS if set
// (a value of 1 forces serial execution, e.g. for timing a baseline),
// otherwise std::thread::hardware_concurrency() — so a CI runner or a
// user pins a sweep's parallelism with a single knob. The sharded
// engine takes its worker count from ShardOptions::threads instead,
// which every caller sets explicitly.
#pragma once

namespace hrmc::harness {

/// HRMC_BENCH_THREADS if set (>= 1), otherwise hardware_concurrency()
/// (>= 1). Re-read on every call so tests can adjust the environment.
[[nodiscard]] unsigned thread_budget();

}  // namespace hrmc::harness
