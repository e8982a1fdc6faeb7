// Chaos sweep / replay driver (DESIGN.md §11, EXPERIMENTS.md).
//
//   chaos --seeds N [--start S] [--threads T] [--repro-dir DIR]
//         [--no-shrink] [--shrink-budget R] [--mem]
//       Runs N seeded random adversarial scenarios through the
//       reliability oracle. On failure, shrinks each failing scenario
//       and writes a self-contained repro file; exits nonzero. --mem
//       generates the scenarios with generate_mem_spec (a per-host
//       memory budget plus squeeze and alloc-fail windows).
//
//   chaos --replay FILE
//       Re-executes a repro file's scenario (bit-identical to the run
//       that produced it) and reports the oracle verdict. Exits 0 when
//       the oracle passes, 1 when it fails — replaying a genuine repro
//       therefore exits 1 with the same failure line every time.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/chaos.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seeds N] [--start S] [--threads T]\n"
               "          [--repro-dir DIR] [--no-shrink] "
               "[--shrink-budget R] [--mem]\n"
               "       %s --replay FILE\n",
               argv0, argv0);
  return 2;
}

int replay(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "chaos: cannot open %s\n", path.c_str());
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();
  const auto spec = hrmc::harness::parse_spec(text.str());
  if (!spec) {
    std::fprintf(stderr, "chaos: %s is not a hrmc-chaos-repro v1 file\n",
                 path.c_str());
    return 2;
  }
  const auto verdict = hrmc::harness::judge(*spec);
  if (verdict.ok) {
    std::printf("seed %llu: OK\n",
                static_cast<unsigned long long>(spec->seed));
    return 0;
  }
  std::printf("seed %llu: FAIL: %s\n",
              static_cast<unsigned long long>(spec->seed),
              verdict.failure.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  int seeds = 100;
  std::uint64_t start = 1;
  unsigned threads = 0;
  std::string repro_dir = ".";
  std::string replay_file;
  bool do_shrink = true;
  bool mem = false;
  int shrink_budget = 200;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--seeds") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      seeds = std::atoi(v);
    } else if (arg == "--start") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      start = std::strtoull(v, nullptr, 10);
    } else if (arg == "--threads") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      threads = static_cast<unsigned>(std::atoi(v));
    } else if (arg == "--repro-dir") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      repro_dir = v;
    } else if (arg == "--replay") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      replay_file = v;
    } else if (arg == "--no-shrink") {
      do_shrink = false;
    } else if (arg == "--mem") {
      // Memory-pressure sweep (DESIGN.md §16): every seed gets a
      // per-host budget plus squeeze / alloc-fail windows.
      mem = true;
    } else if (arg == "--shrink-budget") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      shrink_budget = std::atoi(v);
    } else {
      return usage(argv[0]);
    }
  }

  if (!replay_file.empty()) return replay(replay_file);
  if (seeds <= 0) return usage(argv[0]);

  const auto outcomes = hrmc::harness::sweep(start, seeds, threads, mem);
  int failures = 0;
  for (const auto& o : outcomes) {
    if (o.verdict.ok) continue;
    ++failures;
    std::printf("seed %llu: FAIL: %s\n",
                static_cast<unsigned long long>(o.seed),
                o.verdict.failure.c_str());
  }
  std::printf("chaos: %d/%d scenarios passed (seeds %llu..%llu)\n",
              seeds - failures, seeds,
              static_cast<unsigned long long>(start),
              static_cast<unsigned long long>(start + seeds - 1));
  if (failures == 0) return 0;

  if (do_shrink) {
    int written = 0;
    for (const auto& o : outcomes) {
      if (o.verdict.ok) continue;
      if (written >= 3) break;  // minimizing a few failures is plenty
      const auto spec = mem ? hrmc::harness::generate_mem_spec(o.seed)
                            : hrmc::harness::generate_spec(o.seed);
      const auto small = hrmc::harness::shrink(spec, shrink_budget);
      const auto final_verdict = hrmc::harness::judge(small);
      const std::string path = repro_dir + "/chaos-repro-seed" +
                               std::to_string(o.seed) + ".txt";
      std::ofstream out(path);
      out << hrmc::harness::serialize_spec(small);
      out << "# failure: " << final_verdict.failure << "\n";
      std::printf("seed %llu: shrunk repro (%zu fault events, %llu bytes, "
                  "%zu receivers) -> %s\n",
                  static_cast<unsigned long long>(o.seed),
                  small.faults.size(),
                  static_cast<unsigned long long>(small.file_bytes),
                  small.receiver_count(), path.c_str());
      ++written;
    }
  }
  return 1;
}
