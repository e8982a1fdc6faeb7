#include "kern/checksum.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "kern/byteorder.hpp"
#include "sim/random.hpp"

namespace hrmc::kern {
namespace {

// RFC 1071 as written: network-order byte pairs, an odd last byte
// padded with zero, end-around carries folded in.
std::uint16_t reference_sum(const std::uint8_t* p, std::size_t n) {
  std::uint32_t sum = 0;
  for (std::size_t i = 0; i + 1 < n; i += 2) {
    sum += static_cast<std::uint32_t>(p[i]) << 8 | p[i + 1];
  }
  if (n % 2 == 1) sum += static_cast<std::uint32_t>(p[n - 1]) << 8;
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint16_t>(sum);
}

TEST(Checksum, MatchesBytePairReferenceAtEveryLengthAndAlignment) {
  sim::Rng rng(1071);
  std::vector<std::uint8_t> buf(2048 + 8);
  for (std::uint8_t& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
  for (std::size_t align = 0; align < 8; ++align) {
    for (std::size_t len = 0; len <= 2048; ++len) {
      const std::span<const std::uint8_t> data(buf.data() + align, len);
      const std::uint16_t ref = reference_sum(data.data(), len);
      ASSERT_EQ(internet_checksum(data), static_cast<std::uint16_t>(~ref))
          << "len " << len << " align " << align;
      ASSERT_EQ(checksum_ok(data), ref == 0xffff)
          << "len " << len << " align " << align;
    }
  }
  // Sums that fold to exactly 0xffff or carry many times are the edge
  // cases of the fold: an all-0xff block is both.
  const std::vector<std::uint8_t> ones(2047, 0xff);
  for (std::size_t len = 0; len <= ones.size(); ++len) {
    ASSERT_EQ(internet_checksum({ones.data(), len}),
              static_cast<std::uint16_t>(~reference_sum(ones.data(), len)))
        << "len " << len;
  }
}

TEST(Checksum, OwnChecksumVerifiesAtOddAndEvenLengthsAndABitFlipFails) {
  sim::Rng rng(791);
  for (std::size_t len = 2; len <= 301; ++len) {
    std::vector<std::uint8_t> pkt(len);
    for (std::uint8_t& b : pkt) b = static_cast<std::uint8_t>(rng.next_u64());
    // The checksum field sits at an even offset, as in the header.
    const std::size_t field = 2 * static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(len / 2) - 1));
    put_be16(pkt.data() + field, 0);
    put_be16(pkt.data() + field, internet_checksum(pkt));
    ASSERT_TRUE(checksum_ok(pkt)) << "len " << len;
    const auto bit = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(8 * len) - 1));
    pkt[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(checksum_ok(pkt)) << "len " << len << " bit " << bit;
  }
}

TEST(Checksum, Rfc1071Example) {
  // RFC 1071 worked example: 00 01 f2 03 f4 f5 f6 f7 sums to ddf2,
  // so the stored checksum is ~0xddf2 = 0x220d.
  const std::uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(internet_checksum(data), 0x220d);
}

TEST(Checksum, ZeroBlockChecksumsToAllOnes) {
  const std::uint8_t zeros[10] = {};
  EXPECT_EQ(internet_checksum(zeros), 0xffff);
}

TEST(Checksum, StoredChecksumVerifies) {
  std::vector<std::uint8_t> pkt = {0xde, 0xad, 0xbe, 0xef,
                                   0x00, 0x00,  // checksum field
                                   0x12, 0x34};
  const std::uint16_t c = internet_checksum(pkt);
  put_be16(pkt.data() + 4, c);
  EXPECT_TRUE(checksum_ok(pkt));
}

TEST(Checksum, CorruptionDetected) {
  std::vector<std::uint8_t> pkt = {0x01, 0x02, 0x03, 0x04, 0x00, 0x00};
  put_be16(pkt.data() + 4, internet_checksum(pkt));
  ASSERT_TRUE(checksum_ok(pkt));
  pkt[1] ^= 0x40;
  EXPECT_FALSE(checksum_ok(pkt));
}

TEST(Checksum, OddLengthHandled) {
  std::vector<std::uint8_t> pkt = {0xaa, 0xbb, 0x00, 0x00, 0xcc};
  put_be16(pkt.data() + 2, internet_checksum(pkt));
  EXPECT_TRUE(checksum_ok(pkt));
  pkt[4] ^= 0x01;
  EXPECT_FALSE(checksum_ok(pkt));
}

TEST(Checksum, EmptyBlock) {
  EXPECT_EQ(internet_checksum({}), 0xffff);
  EXPECT_FALSE(checksum_ok({}));  // nothing sums to 0xffff
}

TEST(ByteOrder, RoundTrips) {
  std::uint8_t buf[4];
  put_be16(buf, 0xbeef);
  EXPECT_EQ(get_be16(buf), 0xbeef);
  EXPECT_EQ(buf[0], 0xbe);  // big end first
  put_be32(buf, 0x01020304u);
  EXPECT_EQ(get_be32(buf), 0x01020304u);
  EXPECT_EQ(buf[0], 0x01);
}

}  // namespace
}  // namespace hrmc::kern
