// Spans recorded by the benchmark around its own calls into the
// simulator's layers (each run_transfer call, each timed batch). Kept in
// memory and written once, when the benchmark ends.
#pragma once

#include <chrono>
#include <cstddef>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  struct Span {
    std::string name;
    std::size_t parent = kNoParent;
    double start_s = 0.0;  ///< seconds since the log was created
    double end_s = 0.0;
  };

  std::size_t open(std::string name, std::size_t parent = kNoParent) {
    spans_.push_back({std::move(name), parent, now_s(), 0.0});
    return spans_.size() - 1;
  }
  void close(std::size_t id) { spans_[id].end_s = now_s(); }

  /// One JSON object per line: id, parent (-1 for a root), name,
  /// start_s, end_s.
  bool write_jsonl(const std::string& path) const {
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"parent\":"
          << (s.parent == kNoParent ? -1 : static_cast<long long>(s.parent))
          << ",\"name\":\"" << s.name << "\",\"start_s\":" << s.start_s
          << ",\"end_s\":" << s.end_s << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  using Clock = std::chrono::steady_clock;

  [[nodiscard]] double now_s() const {
    return std::chrono::duration<double>(Clock::now() - t0_).count();
  }

  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name,
             std::size_t parent = SpanLog::kNoParent)
      : log_(log), id_(log.open(std::move(name), parent)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::size_t id() const { return id_; }

 private:
  SpanLog& log_;
  std::size_t id_;
};

}  // namespace perfbench
