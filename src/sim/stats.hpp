// Named counters for network elements and the fault layer.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace hrmc::sim {

/// A named bag of monotone counters; protocol stacks expose one of these
/// so the harness can diff counts across a run without the protocol
/// knowing anything about experiments.
class CounterSet {
 public:
  void inc(const std::string& name, std::uint64_t by = 1) {
    counters_[name] += by;
  }
  [[nodiscard]] std::uint64_t get(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }
  [[nodiscard]] const std::map<std::string, std::uint64_t>& all() const {
    return counters_;
  }
  void reset() { counters_.clear(); }

 private:
  std::map<std::string, std::uint64_t> counters_;
};

}  // namespace hrmc::sim
