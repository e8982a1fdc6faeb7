#include "kern/skbuff.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <type_traits>
#include <vector>

#include "hrmc/wire.hpp"

namespace hrmc::kern {
namespace {

TEST(SkBuff, AllocReservesHeadroom) {
  auto skb = SkBuff::alloc(100, 32);
  EXPECT_EQ(skb->size(), 0u);
  EXPECT_EQ(skb->headroom(), 32u);
  EXPECT_EQ(skb->tailroom(), 100u);
}

TEST(SkBuff, PutExtendsTail) {
  auto skb = SkBuff::alloc(100);
  std::uint8_t* p = skb->put(10);
  std::iota(p, p + 10, 0);
  EXPECT_EQ(skb->size(), 10u);
  EXPECT_EQ(skb->data()[9], 9);
}

TEST(SkBuff, PushConsumesHeadroom) {
  auto skb = SkBuff::alloc(100, 20);
  skb->put(5);
  std::uint8_t* hdr = skb->push(8);
  EXPECT_EQ(hdr, skb->data());
  EXPECT_EQ(skb->size(), 13u);
  EXPECT_EQ(skb->headroom(), 12u);
}

TEST(SkBuff, PushBeyondHeadroomThrows) {
  auto skb = SkBuff::alloc(10, 4);
  EXPECT_THROW(skb->push(5), std::logic_error);
}

TEST(SkBuff, PullRemovesFront) {
  auto skb = SkBuff::alloc(100);
  std::uint8_t* p = skb->put(10);
  std::iota(p, p + 10, 0);
  skb->pull(4);
  EXPECT_EQ(skb->size(), 6u);
  EXPECT_EQ(skb->data()[0], 4);
}

TEST(SkBuff, PullPastEndThrows) {
  auto skb = SkBuff::alloc(10);
  skb->put(3);
  EXPECT_THROW(skb->pull(4), std::logic_error);
}

TEST(SkBuff, TrimShrinks) {
  auto skb = SkBuff::alloc(10);
  skb->put(8);
  skb->trim(5);
  EXPECT_EQ(skb->size(), 5u);
  EXPECT_THROW(skb->trim(9), std::logic_error);
}

TEST(SkBuff, CloneSharesUntilWritten) {
  auto skb = SkBuff::alloc(10);
  skb->put(4)[0] = 7;
  skb->saddr = 0x0a000001;
  auto copy = skb->clone();
  EXPECT_TRUE(skb->shared());
  EXPECT_TRUE(copy->shared());
  EXPECT_EQ(copy->data(), skb->data());  // same block: O(1) clone
  EXPECT_EQ(copy->saddr, 0x0a000001u);
  // First write through either view copies; the other is untouched.
  copy->mutable_bytes()[0] = 99;
  EXPECT_FALSE(copy->shared());
  EXPECT_FALSE(skb->shared());
  EXPECT_EQ(skb->data()[0], 7);
  EXPECT_EQ(copy->data()[0], 99);
}

TEST(SkBuff, CloneThenMutateOriginalLeavesCloneIntact) {
  auto skb = SkBuff::alloc(16);
  auto* p = skb->put(4);
  p[0] = 1; p[1] = 2; p[2] = 3; p[3] = 4;
  auto copy = skb->clone();
  skb->mutable_bytes()[2] = 77;  // COW triggers on the *original* too
  EXPECT_EQ(copy->data()[2], 3);
  EXPECT_EQ(skb->data()[2], 77);
}

TEST(SkBuff, HeadroomPushAfterCloneIsIsolated) {
  auto skb = SkBuff::alloc(10, 8);
  auto* p = skb->put(3);
  p[0] = 10; p[1] = 11; p[2] = 12;
  auto copy = skb->clone();
  // Pushing a header on the clone must not scribble on headroom bytes
  // the original's future push would also cover.
  std::uint8_t* hdr = copy->push(4);
  hdr[0] = 0xAA; hdr[1] = 0xBB; hdr[2] = 0xCC; hdr[3] = 0xDD;
  EXPECT_EQ(copy->size(), 7u);
  EXPECT_EQ(copy->headroom(), 4u);
  std::uint8_t* ohdr = skb->push(4);
  ohdr[0] = 1; ohdr[1] = 2; ohdr[2] = 3; ohdr[3] = 4;
  EXPECT_EQ(copy->data()[0], 0xAA);
  EXPECT_EQ(skb->data()[0], 1);
  // Payload bytes behind both headers survived the copy.
  EXPECT_EQ(copy->data()[4], 10);
  EXPECT_EQ(skb->data()[4], 10);
}

TEST(SkBuff, PullAndTrimAreViewOnlyOnClones) {
  skbuff_stats_reset();
  auto skb = SkBuff::alloc(100);
  skb->put(50);
  auto copy = skb->clone();
  copy->pull(10);  // skb_pull on a clone: offsets move, no copy
  copy->trim(20);
  EXPECT_EQ(skbuff_stats().cow_copies, 0u);
  EXPECT_TRUE(copy->shared());
  EXPECT_EQ(copy->size(), 20u);
  EXPECT_EQ(skb->size(), 50u);  // original view untouched
}

TEST(SkBuff, PutAfterCloneCopiesBeforeExtending) {
  auto skb = SkBuff::alloc(20);
  skb->put(4)[0] = 5;
  auto copy = skb->clone();
  std::uint8_t* tail = copy->put(4);
  tail[0] = 9;
  EXPECT_FALSE(copy->shared());
  EXPECT_EQ(copy->size(), 8u);
  EXPECT_EQ(skb->size(), 4u);
  EXPECT_EQ(copy->data()[0], 5);  // prefix survived the COW copy
}

TEST(SkBuff, PoolRecyclingDoesNotLeakMetadataOrBytes) {
  skbuff_pool_trim();
  skbuff_stats_reset();
  const std::uint8_t* old_block;
  {
    auto skb = SkBuff::alloc(64, 16);
    skb->put(8);
    skb->saddr = 0x0a000001;
    skb->ttl = 3;
    old_block = skb->data() - skb->headroom();
  }
  // The block goes back to the pool and the next same-class alloc
  // recycles it — with pristine view state and metadata.
  auto fresh = SkBuff::alloc(64, 16);
  EXPECT_EQ(skbuff_stats().pool_hits, 1u);
  EXPECT_EQ(fresh->data() - fresh->headroom(), old_block);
  EXPECT_EQ(fresh->size(), 0u);
  EXPECT_EQ(fresh->headroom(), 16u);
  EXPECT_EQ(fresh->saddr, 0u);
  EXPECT_EQ(fresh->ttl, 64);
}

TEST(SkBuff, PoolClassRoundingIsInvisible) {
  // A 100-byte request is served from a larger class, but tailroom must
  // behave exactly as if 100 bytes had been allocated.
  auto skb = SkBuff::alloc(90, 10);
  EXPECT_EQ(skb->tailroom(), 90u);
  skb->put(90);
  EXPECT_EQ(skb->tailroom(), 0u);
  EXPECT_THROW(skb->put(1), std::logic_error);
}

TEST(SkBuff, OversizeAllocationsBypassThePool) {
  skbuff_pool_trim();
  skbuff_stats_reset();
  { auto big = SkBuff::alloc(64 * 1024); big->put(100); }
  EXPECT_EQ(skbuff_pool_cached(), 0u);  // not cached on release
  auto again = SkBuff::alloc(64 * 1024);
  EXPECT_EQ(skbuff_stats().pool_hits, 0u);
  EXPECT_EQ(skbuff_stats().block_allocs, 2u);
}

TEST(SkBuff, SharedBlockReleasesOnlyWhenLastViewDies) {
  skbuff_pool_trim();
  auto skb = SkBuff::alloc(32);
  skb->put(4);
  auto copy = skb->clone();
  skb.reset();
  EXPECT_EQ(skbuff_pool_cached(), 0u);  // copy still holds the block
  copy.reset();
  EXPECT_EQ(skbuff_pool_cached(), 1u);
}

TEST(SkBuff, OneOwnerPerView) {
  // A second holder of a view takes its own from clone(): the pointer
  // itself cannot be copied, and it carries no control block.
  EXPECT_FALSE(std::is_copy_constructible_v<SkBuffPtr>);
  EXPECT_EQ(sizeof(SkBuffPtr), sizeof(void*));
}

TEST(SkBuff, WireSizeAddsFraming) {
  auto skb = SkBuff::alloc(100);
  skb->put(60);
  EXPECT_EQ(skb->wire_size(), 60u + SkBuff::kLowerLayerBytes);
}

/// A DATA packet whose header checksum covers `payload` bytes, with a
/// little tailroom to spare.
SkBuffPtr checksummed_packet(std::size_t payload) {
  auto skb = SkBuff::alloc(payload + 16);
  std::uint8_t* p = skb->put(payload);
  for (std::size_t i = 0; i < payload; ++i) {
    p[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  proto::Header h;
  h.length = static_cast<std::uint32_t>(payload);
  proto::write_header(*skb, h);
  return skb;
}

TEST(SkBuffChecksum, FannedOutBlockIsSummedOnce) {
  auto pkt = checksummed_packet(1000);
  const std::size_t len = pkt->size();
  // Ten receivers, as Router::route fans out: nine clones plus the
  // original, all on one block.
  std::vector<SkBuffPtr> views;
  for (int i = 0; i < 9; ++i) views.push_back(pkt->clone());
  views.push_back(std::move(pkt));
  skbuff_stats_reset();
  for (const auto& v : views) {
    ASSERT_TRUE(proto::read_header(*v).has_value());
  }
  EXPECT_EQ(skbuff_stats().csum_bytes, len);
  EXPECT_EQ(skbuff_stats().csum_cached, 9u);
  EXPECT_EQ(skbuff_stats().cow_copies, 0u);
}

TEST(SkBuffChecksum, CorruptingOneCloneLeavesTheOtherVerified) {
  auto a = checksummed_packet(200);
  auto b = a->clone();
  ASSERT_TRUE(a->checksum_ok());
  b->mutable_bytes()[30] ^= 0x10;  // copy-on-write: b leaves a's block
  EXPECT_FALSE(b->checksum_ok());
  EXPECT_TRUE(a->checksum_ok());
}

TEST(SkBuffChecksum, InPlaceFlipOfASoleOwnerIsCaught) {
  auto skb = checksummed_packet(200);
  ASSERT_TRUE(skb->checksum_ok());
  ASSERT_FALSE(skb->shared());
  skb->mutable_bytes()[30] ^= 0x10;  // no copy: written in place
  EXPECT_FALSE(skb->checksum_ok());
}

TEST(SkBuffChecksum, PushAndPutForceAResum) {
  auto skb = checksummed_packet(200);
  const std::size_t len = skb->size();
  ASSERT_TRUE(skb->checksum_ok());
  skbuff_stats_reset();
  // Each write is undone by pull/trim, so the view is the memoized one
  // again: only a dropped memo explains a re-sum.
  skb->push(2);
  skb->pull(2);
  EXPECT_TRUE(skb->checksum_ok());
  skb->put(2);
  skb->trim(len);
  EXPECT_TRUE(skb->checksum_ok());
  EXPECT_EQ(skbuff_stats().csum_bytes, 2 * len);
  EXPECT_EQ(skbuff_stats().csum_cached, 0u);
  EXPECT_TRUE(skb->checksum_ok());
  EXPECT_EQ(skbuff_stats().csum_cached, 1u);
}

TEST(SkBuffChecksum, RecycledBlockStartsUnchecked) {
  skbuff_pool_trim();
  // A corrupt packet, shared, allocated first so that it cannot take
  // the block recycled below.
  auto bad = checksummed_packet(200);
  bad->mutable_bytes()[30] ^= 0x10;
  auto bad_clone = bad->clone();
  const std::uint8_t* recycled = nullptr;
  {
    auto good = checksummed_packet(200);  // same size class and view
    ASSERT_TRUE(good->checksum_ok());
    recycled = good->data() - good->headroom();
  }
  // unshare() takes good's block from the pool and copies bad bytes into
  // the very view good verified: a memo surviving the pool would pass it.
  skbuff_stats_reset();
  bad_clone->unshare();
  EXPECT_EQ(skbuff_stats().pool_hits, 1u);
  EXPECT_EQ(bad_clone->data() - bad_clone->headroom(), recycled);
  EXPECT_FALSE(bad_clone->checksum_ok());
}

TEST(SkBuffPatternMemo, ClonesAndSplitViewsHitAtTheirOwnOffset) {
  // One record vouches for every clone of the view, and for the pieces a
  // partial read splits it into, each at its own stream offset.
  auto pkt = checksummed_packet(1000);
  pkt->pull(proto::Header::kSize);
  skbuff_stats_reset();
  EXPECT_FALSE(pkt->pattern_memo_hit(1000, 5000));
  pkt->pattern_memo_set(1000, 5000);
  auto c = pkt->clone();
  EXPECT_TRUE(c->pattern_memo_hit(1000, 5000));
  EXPECT_TRUE(c->pattern_memo_hit(300, 5000));
  c->pull(300);
  EXPECT_TRUE(c->pattern_memo_hit(700, 5300));
  EXPECT_EQ(skbuff_stats().pattern_cached, 3u);
}

TEST(SkBuffPatternMemo, ShiftedOffsetOrBytesOutsideTheRecordMiss) {
  auto pkt = checksummed_packet(1000);
  pkt->pull(proto::Header::kSize);
  auto c = pkt->clone();
  c->pull(100);
  c->trim(500);
  c->pattern_memo_set(500, 5100);  // block bytes [100, 600) of the payload
  skbuff_stats_reset();
  EXPECT_FALSE(c->pattern_memo_hit(500, 5101));
  EXPECT_FALSE(c->pattern_memo_hit(500, 5099));
  EXPECT_FALSE(c->pattern_memo_hit(500, 5100 + (std::uint64_t{1} << 32)));
  EXPECT_FALSE(pkt->pattern_memo_hit(1000, 5000));  // starts before it
  EXPECT_FALSE(pkt->pattern_memo_hit(600, 5000));
  pkt->pull(100);
  EXPECT_TRUE(pkt->pattern_memo_hit(500, 5100));
  EXPECT_FALSE(pkt->pattern_memo_hit(501, 5100));   // ends after it
  pkt->pull(1);
  EXPECT_FALSE(pkt->pattern_memo_hit(499, 5100));   // same offset, later bytes
  EXPECT_TRUE(pkt->pattern_memo_hit(499, 5101));
  EXPECT_EQ(skbuff_stats().pattern_cached, 2u);
}

TEST(SkBuffPatternMemo, PushPutAndMutableBytesDropIt) {
  auto skb = checksummed_packet(200);
  const std::size_t len = skb->size();
  // Each write is undone by pull/trim, so the view is the recorded one
  // again: only a dropped memo explains a miss.
  skb->pattern_memo_set(len, 7);
  skb->push(2);
  skb->pull(2);
  EXPECT_FALSE(skb->pattern_memo_hit(len, 7));
  skb->pattern_memo_set(len, 7);
  skb->put(2);
  skb->trim(len);
  EXPECT_FALSE(skb->pattern_memo_hit(len, 7));
  skb->pattern_memo_set(len, 7);
  ASSERT_FALSE(skb->shared());
  (void)skb->mutable_bytes();  // in place: no copy
  EXPECT_FALSE(skb->pattern_memo_hit(len, 7));

  // A shared block: the writer's copy starts without a record, and its
  // siblings keep theirs.
  skb->pattern_memo_set(len, 7);
  auto sibling = skb->clone();
  (void)skb->mutable_bytes();
  EXPECT_FALSE(skb->pattern_memo_hit(len, 7));
  EXPECT_TRUE(sibling->pattern_memo_hit(len, 7));
}

TEST(SkBuffPatternMemo, RecycledBlockStartsWithoutOne) {
  skbuff_pool_trim();
  // A shared packet, allocated first so that it cannot take the block
  // recycled below.
  auto other = checksummed_packet(200);
  auto other_clone = other->clone();
  const std::uint8_t* recycled = nullptr;
  {
    auto done = checksummed_packet(200);  // same size class and view
    done->pattern_memo_set(done->size(), 0);
    recycled = done->data() - done->headroom();
  }
  // unshare() takes done's block from the pool and writes no byte
  // through push/put/mutable_bytes: only acquisition can clear the memo.
  skbuff_stats_reset();
  other_clone->unshare();
  EXPECT_EQ(skbuff_stats().pool_hits, 1u);
  EXPECT_EQ(other_clone->data() - other_clone->headroom(), recycled);
  EXPECT_FALSE(other_clone->pattern_memo_hit(other_clone->size(), 0));
}

TEST(SkBuffQueue, PullFrontKeepsTheByteCount) {
  SkBuffQueue q;
  auto a = SkBuff::alloc(10); a->put(6);
  auto b = SkBuff::alloc(10); b->put(4);
  q.push_back(std::move(a));
  q.push_back(std::move(b));
  q.pull_front(2);
  EXPECT_EQ(q.packets(), 2u);
  EXPECT_EQ(q.front()->size(), 4u);
  EXPECT_EQ(q.bytes(), 8u);
}

TEST(SkBuffQueue, FifoOrderAndByteAccounting) {
  SkBuffQueue q;
  EXPECT_TRUE(q.empty());
  for (std::size_t n : {3u, 5u, 7u}) {
    auto skb = SkBuff::alloc(10);
    skb->put(n);
    q.push_back(std::move(skb));
  }
  EXPECT_EQ(q.packets(), 3u);
  EXPECT_EQ(q.bytes(), 15u);
  EXPECT_EQ(q.pop_front()->size(), 3u);
  EXPECT_EQ(q.bytes(), 12u);
  EXPECT_EQ(q.pop_front()->size(), 5u);
  EXPECT_EQ(q.pop_front()->size(), 7u);
  EXPECT_EQ(q.pop_front(), nullptr);
  EXPECT_EQ(q.bytes(), 0u);
}

TEST(SkBuffQueue, ClearMaintainsBytes) {
  SkBuffQueue q;
  auto a = SkBuff::alloc(10); a->put(2);
  auto b = SkBuff::alloc(10); b->put(4);
  q.push_back(std::move(a));
  q.push_back(std::move(b));
  EXPECT_EQ(q.front()->size(), 2u);
  EXPECT_EQ(q.bytes(), 6u);
  q.clear();
  EXPECT_EQ(q.bytes(), 0u);
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace hrmc::kern
