// perfbench: the repository benchmark. See README.md for the workloads,
// every metric with its unit and direction, and how to run it.
//
//   perfbench --workload <fanout|lossy|million> --seed <n> --seconds <s>
//             --trace <0|1> [--span-dir <dir>]
//   perfbench --selftest
//   perfbench --list-metrics
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// The last line of standard output is one JSON object. Exit status: 0
// when every cell passed its checks, 1 when one failed (the result is
// still printed), 2 on a usage error (nothing printed).
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "measure.hpp"
#include "metrics.hpp"
#include "spans.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool selftest = false;
  bool list = false;
  std::string span_dir;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <fanout|lossy|million> --seed N "
               "--seconds S --trace <0|1> [--span-dir DIR]\n"
               "       perfbench --selftest | --list-metrics\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(k + " needs a value");
      return argv[++i];
    };
    try {
      if (k == "--workload") {
        a.workload = value();
        have_workload = true;
      } else if (k == "--seed") {
        a.seed = std::stoull(value());
      } else if (k == "--seconds") {
        a.seconds = std::stod(value());
      } else if (k == "--trace") {
        a.trace = std::stoi(value());
      } else if (k == "--span-dir") {
        a.span_dir = value();
      } else if (k == "--selftest") {
        a.selftest = true;
      } else if (k == "--list-metrics") {
        a.list = true;
      } else {
        usage("unknown argument " + k);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + k);
    }
  }
  if (a.selftest || a.list) return a;
  if (!have_workload) usage("--workload is required");
  bool known = false;
  for (const std::string& n : workload_names()) {
    known = known || n == a.workload;
  }
  if (!known) usage("unknown workload " + a.workload);
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  if (!(a.seconds >= 0.0)) usage("--seconds must be >= 0");
  return a;
}

void list_metrics() {
  const auto emit = [](const char* key, const std::vector<MetricDef>& defs) {
    std::cout << "\"" << key << "\": [";
    for (std::size_t i = 0; i < defs.size(); ++i) {
      std::cout << (i ? ", " : "") << "{\"name\": \"" << defs[i].name
                << "\", \"unit\": \"" << defs[i].unit
                << "\", \"better\": \"" << defs[i].better << "\"}";
    }
    std::cout << "]";
  };
  std::cout << "{\"workloads\": [";
  for (std::size_t i = 0; i < workload_names().size(); ++i) {
    std::cout << (i ? ", " : "") << "\"" << workload_names()[i] << "\"";
  }
  std::cout << "], ";
  emit("end_to_end", end_to_end_metrics());
  std::cout << ", ";
  emit("per_layer", per_layer_metrics());
  std::cout << "}\n";
}

// --- Self-test --------------------------------------------------------

int g_selftest_failures = 0;

void expect(bool ok, const std::string& what) {
  if (ok) return;
  ++g_selftest_failures;
  std::cout << "FAIL " << what << "\n";
}

bool close_to(double got, double want) {
  return std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want));
}

/// The derived formulas on a hand-built cell whose answers were worked
/// out by hand (see README.md, "Self-test").
void check_formulas() {
  hrmc::harness::Scenario sc;
  sc.workload.file_bytes = 146000;
  hrmc::harness::RunResult r;
  r.completed = true;
  r.sender.data_packets_sent = 100;
  r.sender.data_bytes_sent = 146000;
  r.sender.retransmissions = 10;
  r.sender.retrans_bytes = 14600;
  r.sender.fec_packets_sent = 20;
  r.sender.fec_parity_bytes = 29200;
  r.sender.naks_received = 5;
  r.sender.rate_requests_received = 3;
  r.sender.urgent_requests_received = 1;
  r.sender.updates_received = 20;
  r.sender.agg_updates_received = 4;
  r.sender.joins_received = 2;
  r.sender.leaves_received = 1;
  r.receivers_total.data_packets_received = 1000;
  r.receivers_total.data_bytes_received = 1460000;
  r.receivers_total.fec_packets_received = 150;
  r.receivers_total.bytes_delivered = 1460000;

  expect(delivered_pkts(r) == 1000, "delivered_pkts");
  expect(feedback_pkts(r) == 36, "feedback_pkts = 5+3+1+20+4+2+1");
  expect(wire_bytes(r) == 189800, "wire_bytes = 146000+14600+29200");
  expect(close_to(wire_overhead(wire_bytes(r), 146000), 1.3),
         "wire_overhead = 189800/146000");
  expect(close_to(ns_per_pkt(0.5, delivered_pkts(r)), 500000.0),
         "ns_per_pkt = 0.5 s / 1000 pkts");
  expect(close_to(delivered_bytes(sc, r), 1460000.0), "delivered_bytes");
  expect(close_to(feedback_per_mb(36, delivered_bytes(sc, r)), 36 / 1.46),
         "feedback_per_mb = 36 / 1.46 MB");
  // tx 189800 B + rx 1460000 + 150 x 1460 B, headers 20 x (130 + 1150).
  expect(close_to(csum_bytes_est(r), 1894400.0), "csum_bytes_est");

  // A modeled population counts each leaf as receiving the file.
  r.modeled_leaves = 1000;
  expect(close_to(delivered_bytes(sc, r), 1460000.0 + 146000000.0),
         "delivered_bytes with 1000 modeled leaves");
}

/// Checks that every registered metric is in the printed JSON with its
/// unit.
void check_emitted(const std::string& workload,
                   const std::vector<MetricDef>& defs, const Report& rep) {
  std::ostringstream os;
  print_report(os, workload, defs, rep);
  const std::string text = os.str();
  for (const MetricDef& d : defs) {
    const std::string key = "\"" + std::string(d.name) + "\": {\"value\": ";
    const std::size_t at = text.rfind(key);
    const std::string unit = "\"unit\": \"" + std::string(d.unit) + "\"}";
    expect(at != std::string::npos &&
               text.compare(text.find(", \"unit\"", at) + 2, unit.size(),
                            unit) == 0,
           workload + ": " + d.name + " emitted with unit " + d.unit);
  }
}

void check_repeats(const std::string& what, const std::vector<MetricDef>& defs,
                   const Report& a, const Report& b) {
  for (const MetricDef& d : defs) {
    if (d.kind != Kind::kCount) continue;
    expect(a.values.at(d.name) == b.values.at(d.name),
           what + ": count " + d.name + " repeats exactly");
  }
}

int selftest() {
  check_formulas();
  for (const std::string& name : workload_names()) {
    const Workload w = make_workload(name, 7, Size::kTiny);
    SpanLog spans;
    const Report e1 = run_end_to_end(w, 0.0, spans);
    const Report e2 = run_end_to_end(w, 0.0, spans);
    const Report t1 = run_traced(w, 7, spans);
    const Report t2 = run_traced(w, 7, spans);
    for (const Report* r : {&e1, &e2, &t1, &t2}) {
      expect(r->failed == 0 && r->attempted > 0,
             name + ": every cell passes" +
                 (r->failures.empty() ? "" : " (" + r->failures.front() + ")"));
    }
    check_emitted(name, end_to_end_metrics(), e1);
    check_emitted(name, per_layer_metrics(), t1);
    check_repeats(name + " end-to-end", end_to_end_metrics(), e1, e2);
    check_repeats(name + " per-layer", per_layer_metrics(), t1, t2);
    std::cout << "selftest " << name << ": " << e1.attempted + t1.attempted
              << " cell runs checked\n";
  }
  std::cout << (g_selftest_failures == 0 ? "selftest ok\n"
                                         : "selftest FAILED\n");
  return g_selftest_failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  if (a.list) {
    list_metrics();
    return 0;
  }
  if (a.selftest) return selftest();

  const Workload w = make_workload(a.workload, a.seed, Size::kFull);
  SpanLog spans;
  const Report rep = a.trace == 1 ? run_traced(w, a.seed, spans)
                                  : run_end_to_end(w, a.seconds, spans);
  if (!a.span_dir.empty()) {
    const std::string path = a.span_dir + "/" + a.workload + "-seed" +
                             std::to_string(a.seed) + "-trace" +
                             std::to_string(a.trace) + ".jsonl";
    if (!spans.write_jsonl(path)) {
      std::cerr << "perfbench: could not write spans to " << path << "\n";
    }
  }
  print_report(std::cout, a.workload,
               a.trace == 1 ? per_layer_metrics() : end_to_end_metrics(), rep);
  return rep.failed == 0 ? 0 : 1;
}
