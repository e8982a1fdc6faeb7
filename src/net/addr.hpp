// IPv4-style addressing for the simulated internetwork.
#pragma once

#include <cstdint>

namespace hrmc::net {

/// Host-order IPv4 address.
using Addr = std::uint32_t;

using Port = std::uint16_t;

constexpr Addr make_addr(unsigned a, unsigned b, unsigned c, unsigned d) {
  return (a << 24) | (b << 16) | (c << 8) | d;
}

/// Class-D (224.0.0.0/4) test, same as IN_MULTICAST.
constexpr bool is_multicast(Addr a) { return (a >> 28) == 0xe; }

/// Transport endpoint: address plus port.
struct Endpoint {
  Addr addr = 0;
  Port port = 0;

  friend bool operator==(const Endpoint&, const Endpoint&) = default;
};

}  // namespace hrmc::net
