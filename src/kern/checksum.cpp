#include "kern/checksum.hpp"

#include <bit>
#include <cstring>

namespace hrmc::kern {
namespace {

// RFC 1071 §2(B): the one's-complement sum of native-order 16-bit words
// is the byte swap of the sum of network-order words, so the data is
// summed as it lies in memory, 32 bits at a time, and swapped once at
// the end on a little-endian host (DESIGN.md §9, "Word-wise checksum").
std::uint32_t sum16(std::span<const std::uint8_t> data) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  // Two 64-bit accumulators of 32-bit loads: a load adds two 16-bit
  // words at once (2^16 ≡ 1 mod 0xffff), and an accumulator could carry
  // out only after 2^32 loads.
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint32_t w0;
    std::uint32_t w1;
    std::memcpy(&w0, p, 4);
    std::memcpy(&w1, p + 4, 4);
    a += w0;
    b += w1;
  }
  std::uint64_t sum = a + b;
  if (n >= 4) {
    std::uint32_t w;
    std::memcpy(&w, p, 4);
    sum += w;
    p += 4;
    n -= 4;
  }
  if (n >= 2) {
    std::uint16_t w;
    std::memcpy(&w, p, 2);
    sum += w;
    p += 2;
    n -= 2;
  }
  if (n == 1) {
    // An odd last byte is the high byte of a word padded with zero.
    const std::uint8_t pad[2] = {*p, 0};
    std::uint16_t w;
    std::memcpy(&w, pad, 2);
    sum += w;
  }
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  auto folded = static_cast<std::uint32_t>(sum);
  if constexpr (std::endian::native == std::endian::little) {
    folded = (folded >> 8) | ((folded & 0xff) << 8);
  }
  return folded;
}

}  // namespace

std::uint16_t internet_checksum(std::span<const std::uint8_t> data) {
  return static_cast<std::uint16_t>(~sum16(data) & 0xffff);
}

bool checksum_ok(std::span<const std::uint8_t> data) {
  return sum16(data) == 0xffff;
}

}  // namespace hrmc::kern
