// GF(256) Reed–Solomon erasure codec for the proactive-FEC extension.
//
// Systematic code over a normalized Cauchy matrix: parity row j applies
// coefficient(j, i) to data shard i of the group. The Cauchy
// construction — C[j][i] = 1/(x_j + y_i) with the x and y sets disjoint
// — makes every square submatrix invertible, so ANY e <= r erasures are
// decodable from ANY e distinct parity rows. The per-column
// normalization scales row 0 to all-ones, which makes parity 0
// byte-identical to the single-XOR parity the seed protocol shipped:
// an r = 1 sender is bit-compatible with every pre-RS receiver and
// every hand-built XOR parity in the existing tests.
//
// Coefficients depend only on (j, i), never on the group size k, so a
// group cut short at a sub-MSS packet or at end-of-stream uses the same
// coefficients for the shards it did accumulate — the absent tail
// shards are implicitly all-zero and contribute nothing.
//
// accumulate() multiplies by bit planes: coeff * s is the XOR of
// coeff * 2^k over the set bits k of s, selected per byte by a mask,
// so the byte loop has no branch or table lookup. Only gf_mul, gf_inv
// and coefficient() read the log/exp tables.
//
// Shard safety: the codec is pure arithmetic — no RNG, no clock, no
// global state beyond lazily built constant tables — so encode and
// decode are bit-identical at any sim::ShardEngine worker count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace hrmc::proto::fec {

/// Largest data-shard count per parity group (mirrors the receiver's
/// long-standing k <= 64 wire-sanity guard).
inline constexpr std::size_t kMaxGroup = 64;
/// Largest parity count per group; the wire parity-index (header
/// `tries` = index + 1) and the Cauchy x-set are sized for this.
inline constexpr std::size_t kMaxParity = 8;

/// GF(256) multiply, polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11d).
[[nodiscard]] std::uint8_t gf_mul(std::uint8_t a, std::uint8_t b);
/// Multiplicative inverse; gf_inv(0) is 0 (never queried by the codec).
[[nodiscard]] std::uint8_t gf_inv(std::uint8_t a);

/// Coefficient of data shard `i` (0-based position in the group) in
/// parity row `j`. Row 0 is all-ones: parity 0 is the plain XOR.
/// Requires j < kMaxParity and i < kMaxGroup.
[[nodiscard]] std::uint8_t coefficient(std::size_t j, std::size_t i);

/// dst[b] ^= coeff * src[b] for b in [0, len): the encoder's inner
/// loop, exposed so the sender can accumulate parity incrementally as
/// each data packet first transmits. dst may equal src.
void accumulate(std::uint8_t* dst, const std::uint8_t* src, std::size_t len,
                std::uint8_t coeff);

/// One available parity shard: its row index and `shard_len` bytes.
struct ParityShard {
  std::size_t index = 0;
  const std::uint8_t* bytes = nullptr;
};

/// Erasure decode. `shards` holds the k data-shard pointers in group
/// order, nullptr marking an erasure; present shards must be
/// zero-padded to `shard_len`. `parities` lists the available parity
/// shards (distinct indices < kMaxParity). On success `out` holds one
/// reconstructed `shard_len`-byte buffer per erasure, in ascending
/// shard-position order, and the return is true. Returns false when
/// the erasure count exceeds the available parity count (the caller
/// falls back to NAK-driven repair).
[[nodiscard]] bool decode(std::size_t k, std::size_t shard_len,
                          const std::vector<const std::uint8_t*>& shards,
                          const std::vector<ParityShard>& parities,
                          std::vector<std::vector<std::uint8_t>>& out);

}  // namespace hrmc::proto::fec
