// Time-series sampler: the per-interval curves behind Fig 11/13-style
// feedback-over-time plots. Runs as a periodic scheduler event; each
// tick it calls a caller-supplied provider that reads (never mutates)
// protocol state, so adding a sampler to a run cannot change the run's
// protocol behaviour — only its event count.
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace hrmc::trace {

/// One sample of the quantities the paper plots over time. Counters
/// (naks_received, ...) are cumulative-as-of-t; per-interval activity is
/// the difference of consecutive samples.
struct SamplePoint {
  sim::SimTime t = 0;
  double rate_bps = 0;            ///< sender's advertised rate (bytes/s)
  double send_window_bytes = 0;   ///< send-buffer occupancy
  double recv_occupancy_bytes = 0;  ///< max over receivers
  double recv_region = 0;           ///< worst flow-control region (0/1/2)
  double nak_list_ranges = 0;       ///< pending NAK ranges, all receivers
  double update_period_jiffies = 0; ///< max over receivers
  // Cumulative feedback counters at the sender.
  double naks_received = 0;
  double rate_requests_received = 0;
  double retransmissions = 0;
};

class Sampler {
 public:
  using Provider = std::function<SamplePoint()>;

  /// Samples every `period` once start()ed; the provider fills every
  /// field except `t`, which the sampler stamps itself.
  Sampler(sim::Scheduler& sched, sim::SimTime period, Provider provider)
      : sched_(&sched), period_(period), provider_(std::move(provider)) {}

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;
  ~Sampler() { stop(); }

  /// Takes an immediate sample, then one every period until stop().
  void start() {
    if (running_) return;
    running_ = true;
    fire();
  }

  void stop() {
    running_ = false;
    pending_.cancel();
  }

  [[nodiscard]] const std::vector<SamplePoint>& samples() const {
    return samples_;
  }
  [[nodiscard]] std::vector<SamplePoint> take() { return std::move(samples_); }

 private:
  void fire() {
    if (!running_) return;
    SamplePoint p = provider_();
    p.t = sched_->now();
    samples_.push_back(p);
    pending_ = sched_->schedule_after(period_, [this] { fire(); });
  }

  sim::Scheduler* sched_;
  sim::SimTime period_;
  Provider provider_;
  sim::EventHandle pending_;
  std::vector<SamplePoint> samples_;
  bool running_ = false;
};

}  // namespace hrmc::trace
