// Loss models beyond time-uniform Bernoulli.
//
// The Gilbert–Elliott model is a two-state Markov chain (Good / Bad)
// advanced once per packet, with an independent loss probability in each
// state. It produces the *bursty* loss of real paths — a router buffer
// overflowing, a wireless link fading — which Bernoulli loss at the same
// mean rate cannot: burstiness is exactly what stresses NAK suppression
// and the sender's retransmission collapsing.
//
// Determinism contract (sim/random.hpp): every GilbertElliott instance
// draws from its own named substream, so attaching one to a router or
// NIC never perturbs the draws of the existing Bernoulli loss streams —
// a fault-free run stays bit-identical whether or not the model is
// merely *available*.
#pragma once

#include <cmath>
#include <cstdint>

#include "sim/random.hpp"
#include "sim/time.hpp"

namespace hrmc::net {

struct GilbertElliottConfig {
  double p_good_bad = 0.0;  ///< per-packet transition probability G -> B
  double p_bad_good = 0.0;  ///< per-packet transition probability B -> G
  double loss_good = 0.0;   ///< loss probability while in the Good state
  double loss_bad = 1.0;    ///< loss probability while in the Bad state
};

class GilbertElliott {
 public:
  GilbertElliott(const GilbertElliottConfig& cfg, std::uint64_t seed)
      : cfg_(cfg), rng_(seed) {}

  /// Advances the chain one packet and returns the loss decision.
  bool drop() {
    if (bad_) {
      if (rng_.chance(cfg_.p_bad_good)) bad_ = false;
    } else {
      if (rng_.chance(cfg_.p_good_bad)) bad_ = true;
    }
    return rng_.chance(bad_ ? cfg_.loss_bad : cfg_.loss_good);
  }

  [[nodiscard]] const GilbertElliottConfig& config() const { return cfg_; }
  [[nodiscard]] std::uint64_t rng_digest() const { return rng_.digest(); }

 private:
  GilbertElliottConfig cfg_;
  sim::Rng rng_;
  bool bad_ = false;  ///< chain starts in the Good state
};

/// 802.11-style wireless link loss: Gilbert–Elliott extended two ways.
///
/// First, burst lengths are *correlated*: entering the Bad state draws a
/// whole fade duration (geometric, `mean_burst` packets) instead of
/// re-flipping an exit coin per packet — matching the measured behavior
/// of wireless links where a fade, once begun, swallows a run of frames.
/// Second, the fade-entry probability is modulated by a deterministic
/// SNR-like slow cycle over simulation time (think a node moving through
/// a standing-wave pattern): p_enter(t) = p_good_bad * (1 + snr_depth *
/// sin(2π(t/snr_period + snr_phase))), clamped to [0,1]. Per-link
/// instances get distinct phases and RNG substreams, so fades across
/// links of one group are neither independent-memoryless nor lockstep.
struct WirelessLossConfig {
  double p_good_bad = 0.0;  ///< base per-packet fade-entry probability
  double mean_burst = 4.0;  ///< mean fade length in packets (geometric)
  double loss_good = 0.0;   ///< loss probability between fades
  double loss_bad = 1.0;    ///< loss probability inside a fade
  double snr_depth = 0.0;   ///< modulation depth of p_good_bad, 0..1
  sim::SimTime snr_period = sim::seconds(1);  ///< fade-cycle period
  double snr_phase = 0.0;   ///< per-link phase offset, cycles in [0,1)
};

class WirelessLoss {
 public:
  WirelessLoss(const WirelessLossConfig& cfg, std::uint64_t seed)
      : cfg_(cfg), rng_(seed) {}

  /// Advances the model one packet at simulation time `now` and returns
  /// the loss decision.
  bool drop(sim::SimTime now) {
    if (bad_) {
      if (--burst_left_ <= 0) bad_ = false;
    } else if (rng_.chance(entry_probability(now))) {
      bad_ = true;
      burst_left_ = draw_burst_length();
    }
    return rng_.chance(bad_ ? cfg_.loss_bad : cfg_.loss_good);
  }

  [[nodiscard]] const WirelessLossConfig& config() const { return cfg_; }
  [[nodiscard]] std::uint64_t rng_digest() const { return rng_.digest(); }

  /// The SNR-modulated fade-entry probability at time `now` (exposed for
  /// tests; drop() is the only caller inside the model).
  [[nodiscard]] double entry_probability(sim::SimTime now) const {
    double p = cfg_.p_good_bad;
    if (cfg_.snr_depth != 0.0 && cfg_.snr_period > 0) {
      const double cycles =
          static_cast<double>(now) / static_cast<double>(cfg_.snr_period) +
          cfg_.snr_phase;
      constexpr double kTau = 6.283185307179586476925286766559;
      p *= 1.0 + cfg_.snr_depth * std::sin(kTau * cycles);
    }
    return p < 0.0 ? 0.0 : (p > 1.0 ? 1.0 : p);
  }

 private:
  [[nodiscard]] std::int64_t draw_burst_length() {
    if (cfg_.mean_burst <= 1.0) return 1;
    // Geometric with mean m: L = 1 + floor(ln(1-u) / ln(1-1/m)).
    const double u = rng_.next_double();
    const double l = std::log1p(-u) / std::log1p(-1.0 / cfg_.mean_burst);
    return 1 + static_cast<std::int64_t>(l);
  }

  WirelessLossConfig cfg_;
  sim::Rng rng_;
  bool bad_ = false;          ///< inside a fade
  std::int64_t burst_left_ = 0;  ///< packets left in the current fade
};

}  // namespace hrmc::net
