// Long-soak driver: hours-equivalent sim time on a moving network.
//
//   soak [--sim-minutes N] [--seed S] [--out DIR] [--max-segments K]
//
// Runs generate_soak_spec() segments — trunk-flap trains with route
// reconvergence, receiver link flaps, wireless fade windows, and
// membership churn — until the accumulated *simulated* time crosses the
// target. Every segment must pass the chaos reliability oracle (full
// delivery to every stable receiver, no stream errors, clean
// trace::verify) plus counter-drift checks that a single transfer makes
// exact:
//
//   - the sender releases exactly file_bytes (released once, never
//     twice, never short);
//   - every receiver that neither churned nor crashed delivers exactly
//     file_bytes to its application;
//   - no NAK_ERR is ever sent under EvictionPolicy::kStall.
//
// On failure the segment's spec is written as a self-contained repro
// (replayable with `chaos --replay`) next to its trace JSONL, and the
// driver exits 1. Long blackouts are event-sparse, so sim time is far
// cheaper than wall time: the default 10 sim-minutes is a CI smoke
// slice; nightly runs pass --sim-minutes 120 or more.
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

bool is_churned(const hrmc::harness::ChaosSpec& spec, std::size_t receiver) {
  for (const auto& c : spec.churn) {
    if (c.receiver == receiver) return true;
  }
  return false;
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
    if (arg == "--sim-minutes") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      sim_minutes = std::atof(v);
    } else if (arg == "--seed") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--out") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      out_dir = v;
    } else if (arg == "--max-segments") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      max_segments = std::atoi(v);
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

    std::string failure;
    const auto verdict = hrmc::harness::judge_result(spec, res);
    if (!verdict.ok) {
      failure = verdict.failure;
    } else if (res.sender.bytes_released != spec.file_bytes) {
      failure = "release drift: released " +
                std::to_string(res.sender.bytes_released) + " of " +
                std::to_string(spec.file_bytes) + " stream bytes";
    } else if (res.sender.nak_errs_sent != 0) {
      failure = "NAK_ERR sent under kStall";
    } else {
      for (std::size_t i = 0; i < res.per_receiver.size(); ++i) {
        if (is_churned(spec, i)) continue;  // joined late / left early
        if (res.per_receiver[i].bytes_delivered != spec.file_bytes) {
          failure = "delivery drift: receiver " + std::to_string(i) +
                    " delivered " +
                    std::to_string(res.per_receiver[i].bytes_delivered) +
                    " of " + std::to_string(spec.file_bytes) + " bytes";
          break;
        }
      }
    }
    if (!failure.empty()) {
      std::fprintf(stderr, "soak: segment %d (seed %llu) FAIL: %s\n",
                   segment,
                   static_cast<unsigned long long>(spec.seed),
                   failure.c_str());
      write_artifacts(out_dir, segment, spec, res, failure);
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
