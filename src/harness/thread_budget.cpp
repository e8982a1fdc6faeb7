#include "harness/thread_budget.hpp"

#include <cstdlib>
#include <thread>

namespace hrmc::harness {

unsigned thread_budget() {
  if (const char* env = std::getenv("HRMC_BENCH_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<unsigned>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 ? hw : 1;
}

}  // namespace hrmc::harness
