// GF(256) Reed–Solomon codec battery (adaptive-FEC extension): field
// arithmetic, the normalized-Cauchy coefficient matrix, and erasure
// decode over every loss pattern within the parity budget.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "hrmc/fec.hpp"

namespace hrmc::proto::fec {
namespace {

// Deterministic pseudo-random byte (no RNG: tests must be replayable
// from the source alone).
std::uint8_t test_byte(std::size_t shard, std::size_t b) {
  return static_cast<std::uint8_t>((shard * 151 + b * 29 + 7) & 0xff);
}

std::vector<std::vector<std::uint8_t>> make_shards(std::size_t k,
                                                   std::size_t len) {
  std::vector<std::vector<std::uint8_t>> d(k);
  for (std::size_t i = 0; i < k; ++i) {
    d[i].resize(len);
    for (std::size_t b = 0; b < len; ++b) d[i][b] = test_byte(i, b);
  }
  return d;
}

/// Encodes parity rows 0..r-1 over `data` exactly as the sender does:
/// incremental accumulate() with coefficient(j, i).
std::vector<std::vector<std::uint8_t>> encode(
    const std::vector<std::vector<std::uint8_t>>& data, std::size_t r,
    std::size_t len) {
  std::vector<std::vector<std::uint8_t>> par(
      r, std::vector<std::uint8_t>(len, 0));
  for (std::size_t j = 0; j < r; ++j) {
    for (std::size_t i = 0; i < data.size(); ++i) {
      accumulate(par[j].data(), data[i].data(), data[i].size(),
                 coefficient(j, i));
    }
  }
  return par;
}

/// Enumerates every size-e subset of {0..n-1}, invoking fn(subset).
template <typename Fn>
void for_each_subset(std::size_t n, std::size_t e, Fn&& fn) {
  std::vector<std::size_t> idx(e);
  for (std::size_t i = 0; i < e; ++i) idx[i] = i;
  while (true) {
    fn(idx);
    // Advance to the next combination.
    std::size_t i = e;
    while (i > 0 && idx[i - 1] == n - e + i - 1) --i;
    if (i == 0) break;
    ++idx[i - 1];
    for (std::size_t j = i; j < e; ++j) idx[j] = idx[j - 1] + 1;
  }
}

TEST(GfArithmetic, InverseRoundTripsForEveryNonzeroElement) {
  for (int a = 1; a < 256; ++a) {
    const auto ua = static_cast<std::uint8_t>(a);
    EXPECT_EQ(gf_mul(ua, gf_inv(ua)), 1) << "a=" << a;
  }
  EXPECT_EQ(gf_inv(0), 0);
  EXPECT_EQ(gf_mul(0, 77), 0);
  EXPECT_EQ(gf_mul(77, 0), 0);
}

TEST(GfArithmetic, MultiplicationMatchesCarrylessReference) {
  // Reference: Russian-peasant multiply with 0x11d reduction.
  const auto ref = [](std::uint8_t a, std::uint8_t b) {
    std::uint32_t r = 0;
    std::uint32_t aa = a;
    for (std::uint32_t bb = b; bb != 0; bb >>= 1) {
      if (bb & 1) r ^= aa;
      aa <<= 1;
      if (aa & 0x100) aa ^= 0x11d;
    }
    return static_cast<std::uint8_t>(r);
  };
  for (int a = 0; a < 256; a += 7) {
    for (int b = 0; b < 256; b += 5) {
      EXPECT_EQ(gf_mul(static_cast<std::uint8_t>(a),
                       static_cast<std::uint8_t>(b)),
                ref(static_cast<std::uint8_t>(a),
                    static_cast<std::uint8_t>(b)))
          << a << "*" << b;
    }
  }
}

TEST(Coefficients, RowZeroIsAllOnesForXorCompatibility) {
  // Parity row 0 must be the plain XOR: an r=1 sender stays
  // bit-compatible with the seed protocol and the hand-built parities
  // in the pre-RS tests.
  for (std::size_t i = 0; i < kMaxGroup; ++i) {
    EXPECT_EQ(coefficient(0, i), 1) << "i=" << i;
  }
}

TEST(Coefficients, AllNonzeroAndRowsPairwiseIndependent) {
  for (std::size_t j = 0; j < kMaxParity; ++j) {
    for (std::size_t i = 0; i < kMaxGroup; ++i) {
      EXPECT_NE(coefficient(j, i), 0) << j << "," << i;
    }
  }
  // Any 2x2 submatrix is invertible (Cauchy superregularity): its
  // determinant never vanishes. Spot-check exhaustively for the first
  // columns every group actually uses.
  for (std::size_t j1 = 0; j1 < kMaxParity; ++j1) {
    for (std::size_t j2 = j1 + 1; j2 < kMaxParity; ++j2) {
      for (std::size_t i1 = 0; i1 < 16; ++i1) {
        for (std::size_t i2 = i1 + 1; i2 < 16; ++i2) {
          const std::uint8_t det =
              gf_mul(coefficient(j1, i1), coefficient(j2, i2)) ^
              gf_mul(coefficient(j1, i2), coefficient(j2, i1));
          EXPECT_NE(det, 0) << j1 << j2 << " " << i1 << "," << i2;
        }
      }
    }
  }
}

TEST(Accumulate, MatchesGfMulForEveryCoefficientAndByte) {
  // Every coefficient against a source holding every byte value, at a
  // length that is not a multiple of 16 so a vectorized loop's scalar
  // tail runs too. Both the two-buffer form (encode) and the in-place
  // form (decode scales a pivot row with dst == src) must equal the
  // table multiply byte for byte.
  constexpr std::size_t kLen = 256 + 13;
  std::vector<std::uint8_t> src(kLen);
  std::vector<std::uint8_t> dst0(kLen);
  for (std::size_t b = 0; b < kLen; ++b) {
    src[b] = static_cast<std::uint8_t>(b);
    dst0[b] = test_byte(3, b);
  }
  for (int c = 0; c < 256; ++c) {
    const auto uc = static_cast<std::uint8_t>(c);
    std::vector<std::uint8_t> dst = dst0;
    accumulate(dst.data(), src.data(), kLen, uc);
    std::vector<std::uint8_t> self = src;
    accumulate(self.data(), self.data(), kLen, uc);
    for (std::size_t b = 0; b < kLen; ++b) {
      ASSERT_EQ(dst[b], dst0[b] ^ gf_mul(uc, src[b]))
          << "c=" << c << " b=" << b;
      ASSERT_EQ(self[b], src[b] ^ gf_mul(uc, src[b]))
          << "in place, c=" << c << " b=" << b;
    }
  }
}

TEST(RsDecode, EveryLossPatternWithinBudgetDecodes) {
  // For k in {4, 8, 16} and r in {1..4}: every erasure pattern of size
  // e <= r must decode exactly, using the first e parity rows.
  constexpr std::size_t kLen = 64;
  for (const std::size_t k : {std::size_t{4}, std::size_t{8},
                              std::size_t{16}}) {
    const auto data = make_shards(k, kLen);
    for (std::size_t r = 1; r <= 4; ++r) {
      const auto par = encode(data, r, kLen);
      for (std::size_t e = 1; e <= r; ++e) {
        for_each_subset(k, e, [&](const std::vector<std::size_t>& lost) {
          std::vector<const std::uint8_t*> shards(k, nullptr);
          for (std::size_t i = 0; i < k; ++i) shards[i] = data[i].data();
          for (const std::size_t i : lost) shards[i] = nullptr;
          std::vector<ParityShard> avail;
          for (std::size_t j = 0; j < e; ++j) {
            avail.push_back(ParityShard{j, par[j].data()});
          }
          std::vector<std::vector<std::uint8_t>> out;
          ASSERT_TRUE(decode(k, kLen, shards, avail, out))
              << "k=" << k << " r=" << r << " e=" << e;
          ASSERT_EQ(out.size(), e);
          for (std::size_t a = 0; a < e; ++a) {
            EXPECT_EQ(out[a], data[lost[a]])
                << "k=" << k << " shard " << lost[a];
          }
        });
      }
    }
  }
}

TEST(RsDecode, AnySurvivingParitySubsetDecodes) {
  // The Cauchy construction promises decode from ANY e distinct rows,
  // not just rows 0..e-1 — the rows that survive loss are arbitrary.
  constexpr std::size_t kLen = 48;
  constexpr std::size_t k = 8;
  constexpr std::size_t r = 4;
  const auto data = make_shards(k, kLen);
  const auto par = encode(data, r, kLen);
  const std::vector<std::size_t> lost = {2, 5};
  for_each_subset(r, lost.size(), [&](const std::vector<std::size_t>& rows) {
    std::vector<const std::uint8_t*> shards(k, nullptr);
    for (std::size_t i = 0; i < k; ++i) shards[i] = data[i].data();
    for (const std::size_t i : lost) shards[i] = nullptr;
    std::vector<ParityShard> avail;
    for (const std::size_t j : rows) {
      avail.push_back(ParityShard{j, par[j].data()});
    }
    std::vector<std::vector<std::uint8_t>> out;
    ASSERT_TRUE(decode(k, kLen, shards, avail, out));
    EXPECT_EQ(out[0], data[2]);
    EXPECT_EQ(out[1], data[5]);
  });
}

TEST(RsDecode, LossBeyondBudgetIsDetectedNotMisdecoded) {
  constexpr std::size_t kLen = 32;
  for (std::size_t r = 1; r <= 3; ++r) {
    constexpr std::size_t k = 8;
    const auto data = make_shards(k, kLen);
    const auto par = encode(data, r, kLen);
    std::vector<const std::uint8_t*> shards(k, nullptr);
    for (std::size_t i = 0; i < k; ++i) shards[i] = data[i].data();
    for (std::size_t i = 0; i <= r; ++i) shards[i] = nullptr;  // r+1 gone
    std::vector<ParityShard> avail;
    for (std::size_t j = 0; j < r; ++j) {
      avail.push_back(ParityShard{j, par[j].data()});
    }
    std::vector<std::vector<std::uint8_t>> out;
    EXPECT_FALSE(decode(k, kLen, shards, avail, out)) << "r=" << r;
  }
}

TEST(RsDecode, DuplicateParityRowsAreRejected) {
  constexpr std::size_t kLen = 16;
  constexpr std::size_t k = 4;
  const auto data = make_shards(k, kLen);
  const auto par = encode(data, 2, kLen);
  std::vector<const std::uint8_t*> shards(k, nullptr);
  shards[2] = data[2].data();
  shards[3] = data[3].data();
  const std::vector<ParityShard> avail = {ParityShard{0, par[0].data()},
                                          ParityShard{0, par[0].data()}};
  std::vector<std::vector<std::uint8_t>> out;
  EXPECT_FALSE(decode(k, kLen, shards, avail, out));
}

TEST(RsDecode, TruncatedGroupWithZeroPaddedTailRoundTrips) {
  // A group cut short at a sub-MSS packet: the tail shard is partial
  // and both encoder and decoder treat it as zero-padded to shard_len.
  constexpr std::size_t kLen = 40;
  constexpr std::size_t kTail = 13;
  constexpr std::size_t k = 5;
  auto data = make_shards(k, kLen);
  std::memset(data[k - 1].data() + kTail, 0, kLen - kTail);
  for (std::size_t r = 1; r <= 3; ++r) {
    const auto par = encode(data, r, kLen);
    // Lose the tail shard plus (r-1) others.
    std::vector<const std::uint8_t*> shards(k, nullptr);
    for (std::size_t i = 0; i < k; ++i) shards[i] = data[i].data();
    shards[k - 1] = nullptr;
    for (std::size_t i = 0; i + 1 < r; ++i) shards[i] = nullptr;
    std::vector<ParityShard> avail;
    for (std::size_t j = 0; j < r; ++j) {
      avail.push_back(ParityShard{j, par[j].data()});
    }
    std::vector<std::vector<std::uint8_t>> out;
    ASSERT_TRUE(decode(k, kLen, shards, avail, out)) << "r=" << r;
    EXPECT_EQ(out.back(), data[k - 1]);
  }
}

TEST(RsDecode, EmptyErasureSetIsTriviallyTrue) {
  constexpr std::size_t kLen = 8;
  const auto data = make_shards(2, kLen);
  const std::vector<const std::uint8_t*> shards = {data[0].data(),
                                                   data[1].data()};
  std::vector<std::vector<std::uint8_t>> out;
  EXPECT_TRUE(decode(2, kLen, shards, {}, out));
  EXPECT_TRUE(out.empty());
}

}  // namespace
}  // namespace hrmc::proto::fec
