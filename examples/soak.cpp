// Long-soak driver: hours-equivalent sim time on a moving network.
//
//   soak [--sim-minutes N] [--seed S] [--out DIR] [--max-segments K]
//
// Runs generate_soak_spec() segments — trunk-flap trains with route
// reconvergence, receiver link flaps, wireless fade windows, and
// membership churn — until the accumulated *simulated* time crosses the
// target. Every segment must pass the chaos reliability oracle
// (judge_result): full delivery to every stable receiver, no stream
// errors, clean trace::verify, and the counts a single transfer makes
// exact (the sender releases exactly file_bytes, every receiver that
// neither churned nor crashed delivers exactly file_bytes, and no
// NAK_ERR is sent under EvictionPolicy::kStall).
//
// On failure the segment's spec is written as a self-contained repro
// (replayable with `chaos --replay`) next to its trace JSONL, and the
// driver exits 1. Long blackouts are event-sparse, so sim time is far
// cheaper than wall time: the default 10 sim-minutes is a CI smoke
// slice; nightly runs pass --sim-minutes 120 or more.
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "harness/chaos.hpp"
#include "trace/jsonl.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--sim-minutes N] [--seed S] [--out DIR]\n"
               "          [--max-segments K]\n",
               argv0);
  return 2;
}

void write_artifacts(const std::string& out_dir, int segment,
                     const hrmc::harness::ChaosSpec& spec,
                     const hrmc::harness::RunResult& res,
                     const std::string& failure) {
  const std::string base =
      out_dir + "/soak-seg" + std::to_string(segment);
  {
    std::ofstream repro(base + "-repro.txt");
    repro << hrmc::harness::serialize_spec(spec);
    repro << "# failure: " << failure << "\n";
  }
  {
    std::ofstream jsonl(base + "-trace.jsonl");
    hrmc::trace::write_jsonl(jsonl, res.trace_records);
  }
  std::fprintf(stderr, "soak: artifacts written to %s-{repro.txt,trace.jsonl}\n",
               base.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  double sim_minutes = 10.0;
  std::uint64_t seed = 1;
  std::string out_dir = ".";
  int max_segments = 10000;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // Reads the next argument, whole, into `out`: false when it is
    // missing, not a number, has trailing characters, carries a sign an
    // unsigned `out` cannot take, or is out of range.
    const auto next_number = [&](auto& out) {
      const char* v = next();
      if (!v) return false;
      const char* end = v + std::strlen(v);
      const auto [ptr, ec] = std::from_chars(v, end, out);
      return ec == std::errc{} && ptr == end;
    };
    if (arg == "--sim-minutes") {
      if (!next_number(sim_minutes) || !std::isfinite(sim_minutes) ||
          sim_minutes <= 0) {
        return usage(argv[0]);
      }
    } else if (arg == "--seed") {
      if (!next_number(seed)) return usage(argv[0]);
    } else if (arg == "--out") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      out_dir = v;
    } else if (arg == "--max-segments") {
      if (!next_number(max_segments) || max_segments <= 0) {
        return usage(argv[0]);
      }
    } else {
      return usage(argv[0]);
    }
  }

  const double target_s = sim_minutes * 60.0;
  double sim_total_s = 0.0;
  std::uint64_t rejoins = 0, stale_groups = 0, batch_responses = 0;
  int segment = 0;
  for (; segment < max_segments && sim_total_s < target_s; ++segment) {
    const auto spec = hrmc::harness::generate_soak_spec(
        seed + static_cast<std::uint64_t>(segment));
    const auto sc = hrmc::harness::to_scenario(spec);
    hrmc::harness::RunResult res;
    try {
      res = hrmc::harness::run_transfer(sc);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "soak: segment %d (seed %llu) threw: %s\n",
                   segment,
                   static_cast<unsigned long long>(spec.seed), e.what());
      write_artifacts(out_dir, segment, spec, res, e.what());
      return 1;
    }

    const auto verdict = hrmc::harness::judge_result(spec, res);
    if (!verdict.ok) {
      std::fprintf(stderr, "soak: segment %d (seed %llu) FAIL: %s\n",
                   segment,
                   static_cast<unsigned long long>(spec.seed),
                   verdict.failure.c_str());
      write_artifacts(out_dir, segment, spec, res, verdict.failure);
      return 1;
    }

    const double seg_s =
        static_cast<double>(res.elapsed) / 1e9;
    sim_total_s += seg_s;
    rejoins += res.receivers_total.stall_rejoins;
    stale_groups += res.receivers_total.fec_stale_groups;
    batch_responses += res.sender.join_batch_responses;
    std::printf(
        "soak: segment %d seed %llu ok  +%.1fs sim (total %.1fs / %.0fs)  "
        "rejoins=%llu evictions=%llu stalls=%.2fs\n",
        segment, static_cast<unsigned long long>(spec.seed), seg_s,
        sim_total_s, target_s,
        static_cast<unsigned long long>(res.receivers_total.stall_rejoins),
        static_cast<unsigned long long>(res.sender.members_evicted),
        static_cast<double>(res.sender.window_stall_time) / 1e9);
    std::fflush(stdout);
  }

  std::printf(
      "soak: PASS  %.1f sim-minutes over %d segments "
      "(stall_rejoins=%llu fec_stale_groups=%llu join_batch_responses=%llu)\n",
      sim_total_s / 60.0, segment,
      static_cast<unsigned long long>(rejoins),
      static_cast<unsigned long long>(stale_groups),
      static_cast<unsigned long long>(batch_responses));
  return 0;
}
