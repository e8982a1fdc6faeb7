// Virtual time for the discrete-event engine.
//
// All simulation time is kept as a signed 64-bit count of nanoseconds.
// 2^63 ns is ~292 years, far beyond any experiment horizon, and integer
// time keeps every run exactly reproducible (no floating-point drift in
// the event ordering).
#pragma once

#include <cstdint>
#include <string>

namespace hrmc::sim {

/// Absolute virtual time or a duration, in nanoseconds.
using SimTime = std::int64_t;

inline constexpr SimTime kMicrosecond = 1'000;
inline constexpr SimTime kMillisecond = 1'000'000;
inline constexpr SimTime kSecond = 1'000'000'000;

/// Largest representable time; used as an "infinitely far" horizon.
inline constexpr SimTime kTimeInfinity = INT64_MAX;

constexpr SimTime nanoseconds(std::int64_t n) { return n; }
constexpr SimTime microseconds(std::int64_t n) { return n * kMicrosecond; }
constexpr SimTime milliseconds(std::int64_t n) { return n * kMillisecond; }
constexpr SimTime seconds(std::int64_t n) { return n * kSecond; }

/// Converts a (possibly fractional) number of seconds to SimTime,
/// rounding to the nearest nanosecond.
constexpr SimTime from_seconds(double s) {
  return static_cast<SimTime>(s * static_cast<double>(kSecond) + 0.5);
}

constexpr double to_seconds(SimTime t) {
  return static_cast<double>(t) / static_cast<double>(kSecond);
}

constexpr double to_milliseconds(SimTime t) {
  return static_cast<double>(t) / static_cast<double>(kMillisecond);
}

/// Time a serializer needs to emit `bytes` at `bits_per_second`.
/// Rounds up so back-to-back packets never overlap on a link.
constexpr SimTime transmission_time(std::int64_t bytes, double bits_per_second) {
  const double secs = static_cast<double>(bytes) * 8.0 / bits_per_second;
  return static_cast<SimTime>(secs * static_cast<double>(kSecond)) + 1;
}

/// Human-readable rendering, e.g. "1.250ms", for traces and error text.
std::string format_time(SimTime t);

}  // namespace hrmc::sim
