// BENCH_*.json emitter: the machine-readable side of the bench suite.
//
// Bench binaries write their numbers (wall time per figure, events/sec,
// speedups, time series) to a BENCH_*.json file beside the table they
// print. The format is deliberately small and flat: name → numeric
// metrics. No CI gate reads these files; a binary that enforces a floor
// does so through its exit status.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace hrmc::bench {

class BenchReport {
 public:
  /// `suite` names the producing binary ("core", "fig10", ...).
  explicit BenchReport(std::string suite) : suite_(std::move(suite)) {}

  /// Appends one metric to entry `name`, creating the entry on first
  /// use. Entries and metrics render in insertion order.
  void metric(const std::string& name, const std::string& key, double value);

  /// Attaches a time-series curve to entry `name` (rendered as a
  /// `"series"` object next to `"metrics"`), for plotting.
  void series(const std::string& name, const std::string& key,
              std::vector<double> values);

  [[nodiscard]] std::string to_json() const;

  /// Writes to_json() to `path`; returns false (and prints to stderr)
  /// on I/O failure.
  bool write_file(const std::string& path) const;

 private:
  struct Entry {
    std::string name;
    std::vector<std::pair<std::string, double>> metrics;
    std::vector<std::pair<std::string, std::vector<double>>> series;
  };
  Entry& entry(const std::string& name);
  std::string suite_;
  std::vector<Entry> entries_;
};

/// Output path for a BENCH_*.json file: $HRMC_BENCH_JSON_DIR/<filename>
/// when the variable is set, else ./<filename>.
std::string bench_json_path(const std::string& filename);

/// Seconds elapsed on the wall clock since an arbitrary epoch
/// (steady_clock); subtract two samples around the measured region.
double wall_seconds();

}  // namespace hrmc::bench
