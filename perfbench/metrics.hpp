// Metric registry, the derived formulas, and the report the benchmark
// prints (a human-readable table, then one JSON line).
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "harness/scenario.hpp"

namespace perfbench {

/// How a metric is obtained. Counts (and ratios of counts) are exact
/// and repeat run to run; timed metrics are medians of wall-clock
/// measurements; derived ones combine both.
enum class Kind { kCount, kTimed, kDerived };

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;  ///< "lower" or "higher"
  Kind kind;
};

/// Every end-to-end metric (printed with --trace 0).
const std::vector<MetricDef>& end_to_end_metrics();
/// Every per-layer metric (printed with --trace 1).
const std::vector<MetricDef>& per_layer_metrics();

struct Report {
  std::map<std::string, double> values;
  /// Metrics that do not apply to the workload, with the reason. They
  /// are still emitted (as 0) so every run carries every name.
  std::map<std::string, std::string> not_applicable;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few, for the log

  void fail(const std::string& why);
  void na(const std::string& metric, const std::string& why);
};

/// Prints the table, then the JSON result as the last line of `out`.
void print_report(std::ostream& out, const std::string& workload,
                  const std::vector<MetricDef>& defs, const Report& rep);

// --- Derived formulas (checked by the self-test on a hand-built cell) --

/// Delivered data packets: Σ receivers' data_packets_received.
std::uint64_t delivered_pkts(const hrmc::harness::RunResult& r);

/// Bytes delivered to applications. Real receivers count
/// bytes_delivered; a modeled slot counts its population times the
/// file size once the run completed (each leaf got the whole file).
double delivered_bytes(const hrmc::harness::Scenario& sc,
                       const hrmc::harness::RunResult& r);

/// Feedback packets reaching the sender: NAK, rate request, urgent,
/// UPDATE, AGG_UPDATE, JOIN, LEAVE.
std::uint64_t feedback_pkts(const hrmc::harness::RunResult& r);

/// Data + retransmitted + parity bytes the sender put on the wire.
std::uint64_t wire_bytes(const hrmc::harness::RunResult& r);

/// Bytes the Internet checksum runs over, estimated from the byte
/// counters: every packet the sender writes (data, retransmissions,
/// parity) is summed once on transmit, every data or parity packet a
/// receiver accepts once on receive, each with its 20-byte H-RMC header.
/// Received parity bytes use the sender's mean parity length. Control
/// packets (20-byte headers) are left out.
double csum_bytes_est(const hrmc::harness::RunResult& r);

/// Median of `v` (0 when empty).
double median(std::vector<double> v);

/// ns per delivered packet for a pass of `wall_s` seconds.
double ns_per_pkt(double wall_s, std::uint64_t pkts);

/// Feedback packets per MB (1e6 bytes) delivered.
double feedback_per_mb(std::uint64_t feedback, double delivered_bytes);

/// Wire bytes per file byte.
double wire_overhead(std::uint64_t wire, std::uint64_t file_bytes);

}  // namespace perfbench
