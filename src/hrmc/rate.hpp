// Rate-based flow-control component (§2, "Flow Control").
//
// The sender maintains a current transmission rate, advertised in every
// outgoing packet. The rate follows TCP-like dynamics (paper cites
// Jacobson/Karels):
//   - at connection start, and after any URGENT rate request: rate is set
//     to the minimum and grows through slow start (doubling per RTT) up
//     to ssthresh, then congestion avoidance (linear);
//   - an URGENT request additionally stops forward transmission entirely
//     for two RTTs, regardless of the advertised rate;
//   - a NAK or a warning rate request halves the rate and switches to
//     linear growth.
#pragma once

#include <algorithm>
#include <cstdint>

#include "hrmc/config.hpp"
#include "kern/jiffies.hpp"
#include "sim/time.hpp"

namespace hrmc::proto {

class RateController {
 public:
  explicit RateController(const Config& cfg)
      : cfg_(&cfg),
        rate_(cfg.min_rate),
        ssthresh_(cfg.max_rate) {}

  /// Current transmission rate in bytes per second (the value that goes
  /// into the Rate Advertisement header field).
  [[nodiscard]] std::uint32_t rate() const { return rate_; }

  /// True while an urgent stop is in force: no forward transmission.
  [[nodiscard]] bool stopped(sim::SimTime now) const {
    return now < stop_until_;
  }
  [[nodiscard]] sim::SimTime stopped_until() const { return stop_until_; }

  /// Bytes the sender may transmit during an interval of `dt` at the
  /// current rate, with sub-byte residue carried between jiffies so slow
  /// rates still make progress.
  std::uint64_t budget(sim::SimTime dt) {
    const double bytes = static_cast<double>(rate_) * sim::to_seconds(dt) +
                         residue_;
    const auto whole = static_cast<std::uint64_t>(bytes);
    residue_ = bytes - static_cast<double>(whole);
    return whole;
  }

  /// Periodic growth. Call from the transmit pump; grows the rate once
  /// per RTT of active transmission (slow start doubles, congestion
  /// avoidance adds one MSS-per-RTT's worth of rate).
  void maybe_grow(sim::SimTime now, sim::SimTime srtt, bool actively_sending) {
    if (!actively_sending || stopped(now)) {
      last_growth_ = now;
      return;
    }
    // Growth is clocked at no finer than jiffy granularity: the sender's
    // only congestion feedback (device-queue depth, NAKs) arrives on the
    // jiffy-timer scale, and sub-jiffy growth would outrun it.
    const sim::SimTime interval = std::max(srtt, kern::kJiffy);
    if (now - last_growth_ < interval) return;
    last_growth_ = now;
    if (rate_ < ssthresh_) {
      set_rate(static_cast<std::uint64_t>(rate_) * 2);
    } else {
      // Congestion avoidance: one MSS per interval of additional rate.
      const double mss_per_sec =
          static_cast<double>(cfg_->mss) / sim::to_seconds(interval);
      set_rate(static_cast<std::uint64_t>(rate_) +
               static_cast<std::uint64_t>(mss_per_sec));
    }
  }

  /// NAK or warning-region rate request: multiplicative decrease, at most
  /// once per `holdoff` (so a burst of NAKs from one loss event counts
  /// once), then linear growth. An explicit requested rate (from the
  /// CONTROL packet's rate field) caps the result.
  /// Returns true if a cut was applied.
  bool on_negative_feedback(sim::SimTime now, sim::SimTime holdoff,
                            std::uint32_t requested_rate = 0) {
    if (now - last_cut_ < holdoff) return false;
    last_cut_ = now;
    std::uint64_t next = rate_ / 2;
    if (requested_rate != 0) {
      next = std::min<std::uint64_t>(next, requested_rate);
    }
    set_rate(next);
    ssthresh_ = std::max(rate_, cfg_->min_rate);
    return true;
  }

  /// URGENT rate request: stop forward transmission for two RTTs, then
  /// restart from the minimum rate in slow start (§2 rule 3).
  void on_urgent(sim::SimTime now, sim::SimTime srtt) {
    // Early in a connection srtt can still be 0, which would make the
    // stop zero-length (an urgent request that stops nothing). The stop
    // must bite even without an RTT estimate: clamp to one jiffy, the
    // finest interval the transmit pump observes.
    const sim::SimTime stop_len = std::max<sim::SimTime>(
        static_cast<sim::SimTime>(kUrgentStopRtts * srtt),
        kern::kJiffy);
    stop_until_ = std::max(stop_until_, now + stop_len);
    ssthresh_ = std::max(rate_ / 2, cfg_->min_rate);
    set_rate(cfg_->min_rate);
  }

  /// Device queue full at transmit time: the local card cannot drain at
  /// the current rate. The kernel surfaces this as a dev_queue_xmit
  /// failure / stopped queue; we treat it as a gentle congestion signal
  /// (multiplicative decay toward the drain rate) so the advertised rate
  /// converges near the link speed instead of running open-loop above it.
  void on_device_full(sim::SimTime now) {
    set_rate(static_cast<std::uint64_t>(rate_) * 7 / 8);
    ssthresh_ = std::max(rate_, cfg_->min_rate);
    last_growth_ = now;  // no growth off the back of a full queue
  }

  /// Restart after idle or at connection start: minimum rate, slow start.
  void restart() {
    set_rate(cfg_->min_rate);
    ssthresh_ = cfg_->max_rate;
  }

  [[nodiscard]] std::uint32_t ssthresh() const { return ssthresh_; }
  [[nodiscard]] bool in_slow_start() const { return rate_ < ssthresh_; }

 private:
  void set_rate(std::uint64_t r) {
    rate_ = static_cast<std::uint32_t>(
        std::clamp<std::uint64_t>(r, cfg_->min_rate, cfg_->max_rate));
  }

  const Config* cfg_;
  std::uint32_t rate_;
  std::uint32_t ssthresh_;
  double residue_ = 0.0;
  sim::SimTime last_growth_ = 0;
  sim::SimTime last_cut_ = -(1LL << 60);
  sim::SimTime stop_until_ = 0;
};

}  // namespace hrmc::proto
