// Shared plumbing for the fig* reproduction binaries.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.hpp"
#include "harness/parallel.hpp"
#include "harness/scenario.hpp"
#include "harness/table.hpp"

namespace hrmc::bench {

inline void banner(const std::string& title, const std::string& detail) {
  std::cout << "\n=== " << title << " ===\n" << detail << "\n\n";
}

/// Every run in the bench suite derives from this seed unless a binary
/// takes one on the command line.
inline constexpr std::uint64_t kBenchSeed = 20260706;

inline constexpr std::uint64_t kMiB = 1024 * 1024;

/// Paper's simulated application consumption rate (does not scale with
/// the network; see DESIGN.md).
inline constexpr double kSimAppReadBps = 64e6;

/// Prints one panel of the simulation study (Figs 15 and 16): a row
/// per buffer size, a column per Test 1-5, from results ordered as
/// buffer_sweep() x Tests 1-5. A cell is the throughput, or the rate
/// requests that reached the sender.
inline void print_test_case_panel(
    const char* title, const std::vector<harness::RunResult>& results,
    bool rate_requests) {
  std::cout << title << '\n';
  harness::Table t({"buffer", "Test 1 (A)", "Test 2 (B)", "Test 3 (C)",
                    "Test 4 (80B/20C)", "Test 5 (20B/80C)"});
  std::size_t i = 0;
  for (std::size_t buf : harness::buffer_sweep()) {
    std::vector<std::string> row{harness::buf_label(buf)};
    for (int tc = 1; tc <= 5; ++tc) {
      const harness::RunResult& r = results[i++];
      if (rate_requests) {
        row.push_back(std::to_string(r.sender.rate_requests_received));
      } else {
        row.push_back(r.completed ? harness::fmt(r.throughput_mbps, 2)
                                  : "DNF");
      }
    }
    t.add_row(std::move(row));
  }
  t.print(std::cout);
  std::cout << '\n';
}

/// Sweep driver for the figure binaries: batches a panel's independent
/// (Scenario, seed) cells through the ParallelRunner — results come
/// back in input order and each cell is bit-for-bit the run the serial
/// loop would have produced, so the printed tables are unchanged. On
/// destruction, records the figure's wall time to BENCH_<suite>.json
/// when HRMC_BENCH_JSON_DIR is set (the perf-trajectory artifact).
class Sweep {
 public:
  explicit Sweep(std::string suite)
      : suite_(std::move(suite)), report_(suite_), t0_(wall_seconds()) {}

  Sweep(const Sweep&) = delete;
  Sweep& operator=(const Sweep&) = delete;

  ~Sweep() {
    if (std::getenv("HRMC_BENCH_JSON_DIR") == nullptr) return;
    report_.metric("figure", "wall_s", wall_seconds() - t0_);
    report_.metric("figure", "cells", static_cast<double>(cells_));
    report_.metric("figure", "threads", runner_.threads());
    report_.write_file(bench_json_path("BENCH_" + suite_ + ".json"));
  }

  [[nodiscard]] std::vector<harness::RunResult> run(
      const std::vector<harness::Scenario>& cells) {
    cells_ += cells.size();
    return runner_.run_all(cells);
  }

  /// Passthroughs so figure binaries can attach their own numbers and
  /// per-interval curves next to the wall-time metrics.
  void metric(const std::string& name, const std::string& key, double v) {
    report_.metric(name, key, v);
  }
  void series(const std::string& name, const std::string& key,
              std::vector<double> vals) {
    report_.series(name, key, std::move(vals));
  }

 private:
  std::string suite_;
  BenchReport report_;
  double t0_;
  std::size_t cells_ = 0;
  harness::ParallelRunner runner_;
};

/// Runs one scenario with the tracer and time-series sampling switched
/// on and attaches the sampled curves to `sweep` under entry `name`:
/// sample times (every multiple of `sample_period`, on either engine;
/// see TraceOptions), advertised rate, send-window occupancy, worst receiver
/// occupancy / flow-control region / update period, total NAK backlog,
/// and per-interval feedback deltas (NAKs, rate requests,
/// retransmissions arriving at the sender). The traced run is an extra
/// cell — it never replaces a table cell, so printed tables are
/// unchanged. Returns the RunResult (trace_records included) so callers
/// can feed trace::verify.
inline harness::RunResult traced_cell(
    Sweep& sweep, const std::string& name, harness::Scenario sc,
    sim::SimTime sample_period = sim::milliseconds(100)) {
  sc.trace.enabled = true;
  sc.trace.sample_period = sample_period;
  harness::RunResult r = harness::run_transfer(sc);

  std::vector<double> t_s, rate_mbps, wnd, occ, region, backlog, period;
  std::vector<double> naks, reqs, retx;
  double p_naks = 0.0, p_reqs = 0.0, p_retx = 0.0;
  for (const harness::SamplePoint& p : r.samples) {
    t_s.push_back(sim::to_seconds(p.t));
    rate_mbps.push_back(p.rate_bps * 8.0 / 1e6);  // bytes/s -> Mbit/s
    wnd.push_back(p.send_window_bytes);
    occ.push_back(p.recv_occupancy_bytes);
    region.push_back(p.recv_region);
    backlog.push_back(p.nak_list_ranges);
    period.push_back(p.update_period_jiffies);
    naks.push_back(p.naks_received - p_naks);
    reqs.push_back(p.rate_requests_received - p_reqs);
    retx.push_back(p.retransmissions - p_retx);
    p_naks = p.naks_received;
    p_reqs = p.rate_requests_received;
    p_retx = p.retransmissions;
  }
  sweep.series(name, "t_s", std::move(t_s));
  sweep.series(name, "rate_mbps", std::move(rate_mbps));
  sweep.series(name, "send_window_bytes", std::move(wnd));
  sweep.series(name, "recv_occupancy_bytes", std::move(occ));
  sweep.series(name, "recv_region", std::move(region));
  sweep.series(name, "nak_backlog_ranges", std::move(backlog));
  sweep.series(name, "update_period_jiffies", std::move(period));
  sweep.series(name, "naks_per_interval", std::move(naks));
  sweep.series(name, "rate_requests_per_interval", std::move(reqs));
  sweep.series(name, "retransmissions_per_interval", std::move(retx));
  sweep.metric(name, "sample_period_s", sim::to_seconds(sample_period));
  sweep.metric(name, "trace_records",
               static_cast<double>(r.trace_records.size()));
  sweep.metric(name, "trace_dropped", static_cast<double>(r.trace_dropped));
  return r;
}

}  // namespace hrmc::bench
