#include "sim/random.hpp"

#include <cassert>

namespace hrmc::sim {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
  // A state of all zeros is the one invalid xoshiro state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::next_double() {
  // 53 high bits -> [0,1) with full double precision.
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next_u64());  // full range
  // Rejection sampling to remove modulo bias.
  const std::uint64_t limit = ~0ULL - (~0ULL % span);
  std::uint64_t v;
  do {
    v = next_u64();
  } while (v >= limit);
  return lo + static_cast<std::int64_t>(v % span);
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * next_double();
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

std::uint64_t substream_seed(std::uint64_t root, std::string_view label) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  for (unsigned char c : label) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  std::uint64_t x = root ^ h;
  return splitmix64(x);
}

std::uint64_t Rng::digest() const {
  std::uint64_t acc = 0x6d5f4e3d2c1b0a99ULL;
  for (std::uint64_t s : s_) {
    std::uint64_t x = acc ^ s;
    acc = splitmix64(x);
  }
  return acc;
}

std::uint64_t digest_mix(std::uint64_t acc, std::uint64_t v) {
  std::uint64_t x = acc ^ v;
  return splitmix64(x);
}

}  // namespace hrmc::sim
