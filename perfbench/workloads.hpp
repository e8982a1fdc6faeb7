// The benchmark's three workloads, each a list of closed-loop file
// transfers (harness::Scenario cells) generated from one seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/scenario.hpp"

namespace perfbench {

/// Full size is what the benchmark measures; tiny keeps every cell's
/// shape and shrinks the files, for the self-test.
enum class Size { kFull, kTiny };

struct Workload {
  std::string name;
  std::vector<hrmc::harness::Scenario> cells;
  /// Worker threads of the untraced (timed) run. 1 = serial engine; the
  /// traced run always uses 1 thread (skbuff counters are per thread).
  unsigned threads = 1;
};

/// The workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

/// Builds workload `name` from `seed`; the same (name, seed, size)
/// always gives the same cells. Throws std::invalid_argument on an
/// unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       Size size);

/// Copy of `sc` set up to run on `threads` workers (sharded cells) —
/// serial cells are returned unchanged.
hrmc::harness::Scenario with_threads(hrmc::harness::Scenario sc,
                                     unsigned threads);

}  // namespace perfbench
