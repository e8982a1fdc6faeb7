#include "hrmc/fec.hpp"

#include <array>

namespace hrmc::proto::fec {
namespace {

// exp/log tables for GF(256) with primitive polynomial 0x11d and
// generator alpha = 2. exp_ is doubled so gf_mul needs no modular
// reduction of the log sum.
struct Tables {
  std::array<std::uint8_t, 512> exp_{};
  std::array<std::uint8_t, 256> log_{};

  Tables() {
    std::uint32_t x = 1;
    for (std::size_t i = 0; i < 255; ++i) {
      exp_[i] = static_cast<std::uint8_t>(x);
      log_[x] = static_cast<std::uint8_t>(i);
      x <<= 1;
      if (x & 0x100) x ^= 0x11d;
    }
    for (std::size_t i = 255; i < 512; ++i) exp_[i] = exp_[i - 255];
    log_[0] = 0;  // never consulted: gf_mul/gf_inv special-case zero
  }
};

const Tables& tables() {
  static const Tables t;
  return t;
}

}  // namespace

std::uint8_t gf_mul(std::uint8_t a, std::uint8_t b) {
  if (a == 0 || b == 0) return 0;
  const Tables& t = tables();
  return t.exp_[static_cast<std::size_t>(t.log_[a]) + t.log_[b]];
}

std::uint8_t gf_inv(std::uint8_t a) {
  if (a == 0) return 0;
  const Tables& t = tables();
  return t.exp_[255 - t.log_[a]];
}

std::uint8_t coefficient(std::size_t j, std::size_t i) {
  // Cauchy: C[j][i] = 1 / (x_j ^ y_i) with x_j = j (j < kMaxParity) and
  // y_i = kMaxParity + i — the sets are disjoint, so the denominator is
  // never zero and every square submatrix is invertible. Scaling
  // column i by y_i = C[0][i]^-1 turns row 0 into all-ones without
  // disturbing submatrix invertibility.
  const std::uint8_t y = static_cast<std::uint8_t>(kMaxParity + i);
  const std::uint8_t denom = static_cast<std::uint8_t>(j) ^ y;
  return gf_mul(gf_inv(denom), y);
}

void accumulate(std::uint8_t* dst, const std::uint8_t* src, std::size_t len,
                std::uint8_t coeff) {
  if (coeff == 0) return;
  if (coeff == 1) {
    for (std::size_t b = 0; b < len; ++b) dst[b] ^= src[b];
    return;
  }
  // Bit planes (see fec.hpp): plane[k] = coeff * 2^k, selected by bit k
  // of each source byte. The select compiles to a byte compare and
  // mask, so the loop has no branch and vectorizes at baseline SSE2.
  // Each byte is read before it is written, so dst may equal src.
  std::array<std::uint8_t, 8> plane{};
  for (unsigned k = 0; k < 8; ++k) {
    plane[k] = gf_mul(coeff, static_cast<std::uint8_t>(1u << k));
  }
  for (std::size_t b = 0; b < len; ++b) {
    const std::uint8_t s = src[b];
    std::uint8_t r = 0;
    for (unsigned k = 0; k < 8; ++k) {
      r ^= (s & (1u << k)) != 0 ? plane[k] : std::uint8_t{0};
    }
    dst[b] ^= r;
  }
}

bool decode(std::size_t k, std::size_t shard_len,
            const std::vector<const std::uint8_t*>& shards,
            const std::vector<ParityShard>& parities,
            std::vector<std::vector<std::uint8_t>>& out) {
  out.clear();
  if (k == 0 || k > kMaxGroup || shards.size() != k) return false;

  std::vector<std::size_t> missing;
  for (std::size_t i = 0; i < k; ++i) {
    if (shards[i] == nullptr) missing.push_back(i);
  }
  const std::size_t e = missing.size();
  if (e == 0) return true;
  if (parities.size() < e) return false;

  // Syndromes: s_a = parity_a ^ sum_{present i} coeff(j_a, i) * d_i =
  // sum_{missing i} coeff(j_a, i) * d_i. The first e available parity
  // rows suffice — any e rows of the normalized Cauchy matrix do.
  std::vector<std::vector<std::uint8_t>> synd(e);
  std::vector<std::vector<std::uint8_t>> m(e,
                                           std::vector<std::uint8_t>(e, 0));
  for (std::size_t a = 0; a < e; ++a) {
    const ParityShard& p = parities[a];
    if (p.index >= kMaxParity || p.bytes == nullptr) return false;
    synd[a].assign(p.bytes, p.bytes + shard_len);
    for (std::size_t i = 0; i < k; ++i) {
      if (shards[i] != nullptr) {
        accumulate(synd[a].data(), shards[i], shard_len,
                   coefficient(p.index, i));
      }
    }
    for (std::size_t b = 0; b < e; ++b) {
      m[a][b] = coefficient(p.index, missing[b]);
    }
  }

  // Gaussian elimination on the e x e system, the syndrome buffers as
  // the (byte-vector) right-hand side. The matrix is a column-scaled
  // Cauchy submatrix, so a zero pivot column cannot occur unless the
  // caller passed duplicate parity indices.
  for (std::size_t col = 0; col < e; ++col) {
    std::size_t pivot = col;
    while (pivot < e && m[pivot][col] == 0) ++pivot;
    if (pivot == e) return false;  // duplicate parity row
    if (pivot != col) {
      std::swap(m[pivot], m[col]);
      std::swap(synd[pivot], synd[col]);
    }
    const std::uint8_t inv = gf_inv(m[col][col]);
    for (std::size_t b = col; b < e; ++b) m[col][b] = gf_mul(m[col][b], inv);
    // inv * x = x ^ (inv ^ 1) * x, so the row scales in place through
    // accumulate, which returns at once when inv is 1 (a single erasure
    // decoded from the all-ones row 0).
    accumulate(synd[col].data(), synd[col].data(), shard_len,
               static_cast<std::uint8_t>(inv ^ 1));
    for (std::size_t row = 0; row < e; ++row) {
      if (row == col || m[row][col] == 0) continue;
      const std::uint8_t f = m[row][col];
      for (std::size_t b = col; b < e; ++b) {
        m[row][b] ^= gf_mul(f, m[col][b]);
      }
      accumulate(synd[row].data(), synd[col].data(), shard_len, f);
    }
  }

  out = std::move(synd);
  return true;
}

}  // namespace hrmc::proto::fec
