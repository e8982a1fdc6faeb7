// Deterministic random-number streams.
//
// Every stochastic element of the simulation (router loss, NIC loss, disk
// jitter, application pacing) draws from its own named stream derived from
// the scenario seed, so adding a new consumer of randomness never perturbs
// the draws seen by existing ones — a prerequisite for meaningful A/B
// comparisons between protocol variants on "the same" network weather.
#pragma once

#include <cstdint>
#include <string_view>

namespace hrmc::sim {

/// xoshiro256** by Blackman & Vigna — fast, high-quality, tiny state.
/// Seeded through SplitMix64 so that any 64-bit seed yields a good state.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  void reseed(std::uint64_t seed);

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Bernoulli trial: true with probability p (clamped to [0,1]).
  bool chance(double p);

  // Satisfies UniformRandomBitGenerator so <algorithm> shuffles work.
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return next_u64(); }

  /// Position-sensitive hash of the internal state: two streams seeded
  /// alike that consumed the same number of draws have equal digests,
  /// and any divergence in draw history shows up here. The harness
  /// folds every component's digest into RunResult::rng_digest to prove
  /// serial and sharded executions left each PRNG in the same place.
  [[nodiscard]] std::uint64_t digest() const;

 private:
  std::uint64_t s_[4] = {};
};

/// Order-sensitive accumulator for folding many digests into one
/// (SplitMix64 over the running value xor the contribution), so a
/// matching fold implies every component matched in sequence.
std::uint64_t digest_mix(std::uint64_t acc, std::uint64_t v);

/// Derives an independent substream seed from a root seed and a label,
/// e.g. `substream_seed(seed, "router:0/loss")`. FNV-1a over the label
/// mixed with the root through SplitMix64.
std::uint64_t substream_seed(std::uint64_t root, std::string_view label);

}  // namespace hrmc::sim
