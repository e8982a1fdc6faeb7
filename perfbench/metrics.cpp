#include "metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

using hrmc::harness::RunResult;
using hrmc::harness::Scenario;

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs{
      {"wall_s", "s", "lower", Kind::kTimed},
      {"ns_per_pkt", "ns", "lower", Kind::kTimed},
      {"setup_s", "s", "lower", Kind::kTimed},
      {"peak_rss_mb", "MB", "lower", Kind::kTimed},
      {"goodput_mbps", "Mbit/s", "higher", Kind::kCount},
      {"feedback_per_mb", "pkts/MB", "lower", Kind::kCount},
      {"wire_overhead", "ratio", "lower", Kind::kCount},
      {"ok_share", "ratio", "higher", Kind::kCount},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs{
      {"sim.events", "count", "lower", Kind::kCount},
      {"sim.events_per_pkt", "events/pkt", "lower", Kind::kCount},
      {"sim.ns_per_event", "ns", "lower", Kind::kTimed},
      {"sim.compactions", "count", "lower", Kind::kCount},
      {"sim.epochs", "count", "lower", Kind::kCount},
      {"sim.events_per_epoch", "events/epoch", "higher", Kind::kCount},
      {"sim.handoffs_per_epoch", "handoffs/epoch", "lower", Kind::kCount},
      {"sim.handoff_bytes", "bytes", "lower", Kind::kCount},
      {"kern.csum_bytes_est", "bytes", "lower", Kind::kCount},
      {"kern.ns_per_csum_kb", "ns/KiB", "lower", Kind::kTimed},
      {"kern.clones_per_pkt", "clones/pkt", "lower", Kind::kCount},
      {"kern.cow_copies_per_pkt", "copies/pkt", "lower", Kind::kCount},
      {"kern.pool_hit_ratio", "ratio", "higher", Kind::kCount},
      {"kern.mem_peak_bytes", "bytes", "lower", Kind::kCount},
      {"kern.mem_alloc_fails", "count", "lower", Kind::kCount},
      {"kern.mem_evictions", "count", "lower", Kind::kCount},
      {"net.enqueues_per_pkt", "enqueues/pkt", "lower", Kind::kCount},
      {"net.drops", "count", "lower", Kind::kCount},
      {"net.device_full", "count", "lower", Kind::kCount},
      {"net.corrupt", "count", "lower", Kind::kCount},
      {"net.ns_per_fanout_clone", "ns", "lower", Kind::kTimed},
      {"hrmc.data_pkts_sent", "count", "lower", Kind::kCount},
      {"hrmc.retransmissions", "count", "lower", Kind::kCount},
      {"hrmc.naks_sent", "count", "lower", Kind::kCount},
      {"hrmc.feedback_pkts", "count", "lower", Kind::kCount},
      {"hrmc.fec_recoveries", "count", "higher", Kind::kCount},
      {"hrmc.fec_decode_failures", "count", "lower", Kind::kCount},
      {"hrmc.repairs_served", "count", "higher", Kind::kCount},
      {"hrmc.release_decisions", "count", "lower", Kind::kCount},
      {"hrmc.rescan_work_per_release", "members/release", "lower",
       Kind::kCount},
      {"hrmc.probes_sent", "count", "lower", Kind::kCount},
      {"hrmc.release_violations", "count", "lower", Kind::kCount},
      {"hrmc.ns_header_write", "ns", "lower", Kind::kTimed},
      {"hrmc.ns_header_read", "ns", "lower", Kind::kTimed},
      {"hrmc.ns_fec_encode_group", "ns", "lower", Kind::kTimed},
      {"hrmc.ns_fec_decode_group", "ns", "lower", Kind::kTimed},
      {"app.pattern_bytes", "bytes", "lower", Kind::kCount},
      {"app.ns_per_kb_verify", "ns/KiB", "lower", Kind::kTimed},
      {"app.ns_per_kb_fill", "ns/KiB", "lower", Kind::kTimed},
      {"trace.records", "count", "lower", Kind::kCount},
      {"trace.dropped", "count", "lower", Kind::kCount},
      {"trace.overhead", "ratio", "lower", Kind::kDerived},
      {"sim.est_share", "ratio", "lower", Kind::kDerived},
      {"kern.est_share", "ratio", "lower", Kind::kDerived},
      {"net.est_share", "ratio", "lower", Kind::kDerived},
      {"hrmc.est_share", "ratio", "lower", Kind::kDerived},
      {"app.est_share", "ratio", "lower", Kind::kDerived},
      {"unattributed_share", "ratio", "lower", Kind::kDerived},
  };
  return defs;
}

void Report::fail(const std::string& why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

void Report::na(const std::string& metric, const std::string& why) {
  not_applicable[metric] = why;
}

namespace {

/// All 17 significant digits, so the value reads back exactly as
/// measured. Non-finite values print as 0.
std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void print_report(std::ostream& out, const std::string& workload,
                  const std::vector<MetricDef>& defs, const Report& rep) {
  out << "workload " << workload << ": " << rep.attempted
      << " cell runs, " << rep.failed << " failed\n";
  for (const std::string& f : rep.failures) out << "  FAIL " << f << "\n";
  for (const MetricDef& d : defs) {
    const auto it = rep.values.find(d.name);
    const double v = it == rep.values.end() ? 0.0 : it->second;
    char line[160];
    std::snprintf(line, sizeof line, "  %-30s %16.6g %-16s %-6s", d.name, v,
                  d.unit, d.better);
    out << line;
    const auto na = rep.not_applicable.find(d.name);
    if (na != rep.not_applicable.end()) out << "  n/a: " << na->second;
    out << "\n";
  }
  out << "{\"correct\": " << (rep.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << rep.attempted
      << ", \"failed\": " << rep.failed << ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : defs) {
    const auto it = rep.values.find(d.name);
    out << (first ? "" : ", ") << "\"" << d.name << "\": {\"value\": "
        << num(it == rep.values.end() ? 0.0 : it->second)
        << ", \"unit\": \"" << d.unit << "\"}";
    first = false;
  }
  out << "}}" << std::endl;
}

std::uint64_t delivered_pkts(const RunResult& r) {
  return r.receivers_total.data_packets_received;
}

double delivered_bytes(const Scenario& sc, const RunResult& r) {
  double bytes = static_cast<double>(r.receivers_total.bytes_delivered);
  if (r.completed) {
    bytes += static_cast<double>(r.modeled_leaves) *
             static_cast<double>(sc.workload.file_bytes);
  }
  return bytes;
}

std::uint64_t feedback_pkts(const RunResult& r) {
  const auto& s = r.sender;
  return s.naks_received + s.rate_requests_received +
         s.urgent_requests_received + s.updates_received +
         s.agg_updates_received + s.joins_received + s.leaves_received;
}

std::uint64_t wire_bytes(const RunResult& r) {
  return r.sender.data_bytes_sent + r.sender.retrans_bytes +
         r.sender.fec_parity_bytes;
}

double csum_bytes_est(const RunResult& r) {
  constexpr double kHeader = 20.0;
  const auto& s = r.sender;
  const auto& rt = r.receivers_total;
  const double parity_len =
      s.fec_packets_sent == 0
          ? 0.0
          : static_cast<double>(s.fec_parity_bytes) /
                static_cast<double>(s.fec_packets_sent);
  const double tx_pkts = static_cast<double>(
      s.data_packets_sent + s.retransmissions + s.fec_packets_sent);
  const double rx_pkts =
      static_cast<double>(rt.data_packets_received + rt.fec_packets_received);
  const double rx_bytes =
      static_cast<double>(rt.data_bytes_received) +
      static_cast<double>(rt.fec_packets_received) * parity_len;
  return static_cast<double>(wire_bytes(r)) + rx_bytes +
         kHeader * (tx_pkts + rx_pkts);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ns_per_pkt(double wall_s, std::uint64_t pkts) {
  return pkts == 0 ? 0.0 : wall_s * 1e9 / static_cast<double>(pkts);
}

double feedback_per_mb(std::uint64_t feedback, double delivered) {
  return delivered <= 0.0 ? 0.0
                          : static_cast<double>(feedback) / (delivered / 1e6);
}

double wire_overhead(std::uint64_t wire, std::uint64_t file_bytes) {
  return file_bytes == 0 ? 0.0
                         : static_cast<double>(wire) /
                               static_cast<double>(file_bytes);
}

}  // namespace perfbench
