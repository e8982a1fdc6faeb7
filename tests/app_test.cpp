#include "app/apps.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "app/disk.hpp"
#include "app/pattern.hpp"
#include "hrmc/wire.hpp"
#include "kern/skbuff.hpp"
#include "net/topology.hpp"

namespace hrmc::app {
namespace {

TEST(Pattern, DeterministicAndPositionDependent) {
  EXPECT_EQ(pattern_byte(0), pattern_byte(0));
  int distinct = 0;
  for (int i = 1; i < 256; ++i) {
    if (pattern_byte(i) != pattern_byte(0)) ++distinct;
  }
  EXPECT_GT(distinct, 200);
}

TEST(Pattern, FillVerifyRoundTrip) {
  std::vector<std::uint8_t> buf(4096);
  pattern_fill(buf, 12345);
  EXPECT_EQ(pattern_verify(buf, 12345), buf.size());
  // Wrong offset fails early.
  EXPECT_LT(pattern_verify(buf, 12346), 8u);
  // Corruption detected at the right index.
  buf[100] ^= 0xff;
  EXPECT_EQ(pattern_verify(buf, 12345), 100u);
}

TEST(Pattern, WordWiseFillAndVerifyMatchPatternByte) {
  // Every offset mod 256 (so every alignment against the 128-byte runs
  // and the 256-byte table), plus offsets around 2^32 and 2^40 where
  // i >> 7 carries into high bits, at lengths around word and run edges.
  std::vector<std::uint64_t> offsets;
  for (std::uint64_t o = 0; o < 256; ++o) offsets.push_back(o);
  for (const std::uint64_t base :
       {std::uint64_t{1} << 32, std::uint64_t{1} << 40}) {
    for (const std::uint64_t d : {300, 129, 128, 1}) {
      offsets.push_back(base - d);
    }
    for (const std::uint64_t d : {0, 1, 77, 128, 255}) {
      offsets.push_back(base + d);
    }
  }
  std::vector<std::uint8_t> buf;
  for (const std::size_t len :
       {0, 1, 7, 8, 127, 128, 129, 255, 256, 1460, 65536}) {
    buf.resize(len);
    for (const std::uint64_t off : offsets) {
      // Start from the complement, so a byte that fill skips fails.
      for (std::size_t k = 0; k < len; ++k) {
        buf[k] = static_cast<std::uint8_t>(~pattern_byte(off + k));
      }
      pattern_fill(buf, off);
      std::size_t first_bad = len;
      for (std::size_t k = 0; k < len && first_bad == len; ++k) {
        if (buf[k] != pattern_byte(off + k)) first_bad = k;
      }
      ASSERT_EQ(first_bad, len) << "fill len " << len << " offset " << off;
      ASSERT_EQ(pattern_verify(buf, off), len)
          << "verify len " << len << " offset " << off;
    }
  }
}

TEST(Pattern, VerifyReportsEverySingleBitFlipAtItsIndex) {
  std::vector<std::uint8_t> buf(600);
  for (const std::uint64_t off : {0, 77, 128}) {
    pattern_fill(buf, off);
    for (std::size_t k = 0; k < buf.size(); ++k) {
      for (int bit = 0; bit < 8; ++bit) {
        buf[k] ^= static_cast<std::uint8_t>(1u << bit);
        ASSERT_EQ(pattern_verify(buf, off), k)
            << "offset " << off << " bit " << bit;
        buf[k] ^= static_cast<std::uint8_t>(1u << bit);
      }
    }
  }
}

TEST(Disk, TransferTimeScalesWithSize) {
  DiskConfig cfg;
  cfg.jitter = 0.0;
  cfg.stall_every = 1 << 30;  // no stalls in this test
  DiskModel d(cfg, 1);
  const auto t1 = d.io_time(64 * 1024);
  const auto t2 = d.io_time(128 * 1024);
  EXPECT_NEAR(static_cast<double>(t2), 2.0 * static_cast<double>(t1),
              static_cast<double>(t1) * 0.01);
}

TEST(Disk, StallAddedAtBoundary) {
  DiskConfig cfg;
  cfg.jitter = 0.0;
  cfg.stall_every = 100 * 1024;
  cfg.stall = sim::milliseconds(4);
  DiskModel d(cfg, 1);
  const auto plain = d.io_time(30 * 1024);   // pos 30K
  d.io_time(30 * 1024);                      // pos 60K
  const auto with_stall = d.io_time(50 * 1024);  // crosses 100K
  EXPECT_GT(with_stall, plain + sim::milliseconds(3));
}

TEST(Disk, JitterVariesTimes) {
  DiskConfig cfg;
  cfg.jitter = 0.3;
  cfg.stall_every = 1 << 30;
  DiskModel d(cfg, 7);
  const auto a = d.io_time(64 * 1024);
  const auto b = d.io_time(64 * 1024);
  const auto c = d.io_time(64 * 1024);
  EXPECT_TRUE(a != b || b != c);
}

class AppsTest : public ::testing::Test {
 protected:
  AppsTest() {
    net::TopologyConfig tcfg;
    tcfg.seed = 6;
    tcfg.groups = {net::group_a(1)};
    tcfg.groups[0].loss_rate = 0.0;
    topo_ = std::make_unique<net::Topology>(sched_, tcfg);
  }

  sim::Scheduler sched_;
  std::unique_ptr<net::Topology> topo_;
};

TEST_F(AppsTest, MemoryTransferDeliversEverything) {
  const net::Endpoint group{net::make_addr(224, 7, 7, 7), 7500};
  proto::Config cfg;
  proto::HrmcReceiver rcv(topo_->receiver(0), cfg, group,
                          topo_->sender().addr());
  SinkApp::Options so;
  SinkApp sink(rcv, sched_, so);
  rcv.open();

  proto::HrmcSender snd(topo_->sender(), cfg, 7500, group);
  SourceApp::Options srco;
  srco.total_bytes = 300 * 1024;
  SourceApp src(snd, sched_, srco);
  src.start();

  sched_.run_while([&] { return !sink.finished() || !snd.finished(); },
                   sim::seconds(120));
  EXPECT_TRUE(src.done());
  EXPECT_TRUE(sink.finished());
  EXPECT_EQ(sink.bytes_read(), srco.total_bytes);
  EXPECT_FALSE(sink.verify_failed());
  EXPECT_LE(sink.complete_at(), sink.finished_at());
  snd.stop();
  rcv.stop();
}

TEST_F(AppsTest, StreamCompleteHookRunsOnceAcrossRepeatedReports) {
  // A receiver that crashes and restarts can report completion twice.
  // The sink's hook, which run_transfer counts completed slots with,
  // runs once; complete_at() follows the latest report.
  const net::Endpoint group{net::make_addr(224, 7, 7, 7), 7500};
  proto::HrmcReceiver rcv(topo_->receiver(0), proto::Config{}, group,
                          topo_->sender().addr());
  SinkApp sink(rcv, sched_, SinkApp::Options{});
  int calls = 0;
  sink.on_stream_complete = [&calls] { ++calls; };
  sched_.run_until(sim::milliseconds(1));
  rcv.on_complete();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(sink.complete_at(), sim::milliseconds(1));
  sched_.run_until(sim::milliseconds(2));
  rcv.on_complete();
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(sink.stream_complete());
  EXPECT_EQ(sink.complete_at(), sim::milliseconds(2));
}

TEST_F(AppsTest, ReadRateCapSlowsConsumption) {
  const net::Endpoint group{net::make_addr(224, 7, 7, 7), 7500};
  proto::Config cfg;
  proto::HrmcReceiver rcv(topo_->receiver(0), cfg, group,
                          topo_->sender().addr());
  SinkApp::Options so;
  so.read_rate_bps = 1e6;  // 1 Mbit/s application
  SinkApp sink(rcv, sched_, so);
  rcv.open();

  proto::HrmcSender snd(topo_->sender(), cfg, 7500, group);
  SourceApp::Options srco;
  srco.total_bytes = 256 * 1024;
  SourceApp src(snd, sched_, srco);
  const sim::SimTime start = sched_.now();
  src.start();
  sched_.run_while([&] { return !sink.finished(); }, sim::seconds(120));
  ASSERT_TRUE(sink.finished());
  // 2 Mbit of payload at 1 Mbit/s: at least ~2 s wall clock.
  EXPECT_GT(sched_.now() - start, sim::milliseconds(1800));
  snd.stop();
  rcv.stop();
}

TEST_F(AppsTest, DiskSourceIsSlowerThanMemory) {
  const net::Endpoint group{net::make_addr(224, 7, 7, 7), 7500};

  auto run_once = [&](bool disk) {
    net::TopologyConfig tcfg;
    tcfg.seed = 6;
    tcfg.groups = {net::group_a(1)};
    tcfg.groups[0].loss_rate = 0.0;
    sim::Scheduler sched;
    net::Topology topo(sched, tcfg);
    proto::Config cfg;
    proto::HrmcReceiver rcv(topo.receiver(0), cfg, group,
                            topo.sender().addr());
    SinkApp::Options so;
    SinkApp sink(rcv, sched, so);
    rcv.open();
    proto::HrmcSender snd(topo.sender(), cfg, 7500, group);
    SourceApp::Options srco;
    srco.total_bytes = 512 * 1024;
    if (disk) {
      DiskConfig dc;
      dc.rate_bps = 2e6;  // deliberately slow disk
      srco.disk = dc;
    }
    SourceApp src(snd, sched, srco);
    src.start();
    sched.run_while([&] { return !sink.finished(); }, sim::seconds(300));
    EXPECT_TRUE(sink.finished());
    EXPECT_FALSE(sink.verify_failed());
    snd.stop();
    rcv.stop();
    return sched.now();
  };

  const auto mem_time = run_once(false);
  const auto disk_time = run_once(true);
  EXPECT_GT(disk_time, mem_time);
}

/// Verifying sinks on the receivers of one ten-host group. The tests
/// either send through the network, whose group router fans out clones
/// of one block, or hand each receiver its view directly (rx), choosing
/// which views share a block and in what order the sinks read them.
class SinkMemoTest : public ::testing::Test {
 protected:
  SinkMemoTest() {
    net::TopologyConfig tcfg;
    tcfg.seed = 6;
    tcfg.groups = {net::group_a(10)};
    tcfg.groups[0].loss_rate = 0.0;
    topo_ = std::make_unique<net::Topology>(sched_, tcfg);
  }

  /// Opens a receiver on the next host, drained by a verifying sink
  /// that reads whatever is ready at once.
  void add_sink(const proto::Config& cfg = proto::Config{}) {
    const int i = static_cast<int>(rcv_.size());
    rcv_.push_back(std::make_unique<proto::HrmcReceiver>(
        topo_->receiver(i), cfg, kSession, topo_->sender().addr()));
    sink_.push_back(
        std::make_unique<SinkApp>(*rcv_.back(), sched_, SinkApp::Options{}));
    rcv_.back()->open();
  }

  /// DATA for sequence [seq, seq + len) carrying the pattern from stream
  /// offset `base`.
  kern::SkBuffPtr data(kern::Seq seq, std::uint32_t len, std::uint64_t base) {
    auto skb = kern::SkBuff::alloc(len, proto::Header::kSize + 44);
    pattern_fill({skb->put(len), len}, base);
    proto::Header h;
    h.sport = kSession.port;
    h.dport = kSession.port;
    h.seq = seq;
    h.rate = 1'000'000;
    h.length = len;
    h.tries = 1;
    h.type = proto::PacketType::kData;
    proto::write_header(*skb, h);
    skb->saddr = topo_->sender().addr();
    skb->daddr = kSession.addr;
    skb->protocol = proto::kIpProtoHrmc;
    return skb;
  }

  /// Swaps payload bytes `at` and `at + 2` through mutable_bytes(). The
  /// Internet checksum sums 16-bit words, so the header still verifies
  /// and only the pattern can tell; no other write follows the swap.
  static kern::SkBuffPtr corrupted(kern::SkBuffPtr skb, std::size_t at) {
    const std::span<std::uint8_t> b = skb->mutable_bytes();
    std::swap(b[proto::Header::kSize + at], b[proto::Header::kSize + at + 2]);
    return skb;
  }

  static constexpr net::Endpoint kSession{net::make_addr(224, 7, 7, 7), 7500};
  sim::Scheduler sched_;
  std::unique_ptr<net::Topology> topo_;
  std::vector<std::unique_ptr<proto::HrmcReceiver>> rcv_;
  std::vector<std::unique_ptr<SinkApp>> sink_;
};

TEST_F(SinkMemoTest, TenWayFanOutComparesOnce) {
  for (int i = 0; i < 10; ++i) add_sink();
  sched_.run_until(sim::milliseconds(50));
  kern::skbuff_stats_reset();
  topo_->sender().send(data(proto::Config::kInitialSeq, 1000, 0));
  sched_.run_until(sim::milliseconds(100));
  for (const auto& s : sink_) {
    EXPECT_EQ(s->bytes_read(), 1000u);
    EXPECT_FALSE(s->verify_failed());
  }
  EXPECT_EQ(kern::skbuff_stats().pattern_cached, 9u);
  EXPECT_EQ(kern::skbuff_stats().cow_copies, 0u);
}

TEST_F(SinkMemoTest, CorruptedViewFailsOnlyTheSinkThatReadIt) {
  for (int i = 0; i < 4; ++i) add_sink();
  auto pkt = data(proto::Config::kInitialSeq, 1000, 0);
  kern::skbuff_stats_reset();
  rcv_[0]->rx(pkt->clone());  // compared, and recorded on the block
  // Sink 1's view leaves the shared block before its bytes change.
  rcv_[1]->rx(corrupted(pkt->clone(), 100));
  EXPECT_EQ(kern::skbuff_stats().cow_copies, 1u);
  rcv_[2]->rx(pkt->clone());  // answered by the memo
  EXPECT_EQ(kern::skbuff_stats().pattern_cached, 1u);
  // The recorded block's last view, written in place: the write drops
  // the memo, so sink 3 compares and fails.
  ASSERT_FALSE(pkt->shared());
  rcv_[3]->rx(corrupted(std::move(pkt), 200));
  EXPECT_EQ(kern::skbuff_stats().cow_copies, 1u);
  EXPECT_EQ(kern::skbuff_stats().pattern_cached, 1u);

  EXPECT_FALSE(sink_[0]->verify_failed());
  EXPECT_TRUE(sink_[1]->verify_failed());
  EXPECT_FALSE(sink_[2]->verify_failed());
  EXPECT_TRUE(sink_[3]->verify_failed());
  for (const auto& s : sink_) EXPECT_EQ(s->bytes_read(), 1000u);
}

TEST_F(SinkMemoTest, SameBlockAtAnotherStreamOffsetIsCompared) {
  add_sink();
  proto::Config shifted;
  shifted.initial_seq = proto::Config::kInitialSeq - 100;
  add_sink(shifted);
  rcv_[1]->rx(data(shifted.initial_seq, 100, 0));
  auto pkt = data(proto::Config::kInitialSeq, 1000, 0);
  kern::skbuff_stats_reset();
  rcv_[0]->rx(pkt->clone());   // stream offset 0 for sink 0
  rcv_[1]->rx(std::move(pkt));  // the same bytes at offset 100 for sink 1
  EXPECT_EQ(kern::skbuff_stats().pattern_cached, 0u);
  EXPECT_FALSE(sink_[0]->verify_failed());
  EXPECT_TRUE(sink_[1]->verify_failed());
  EXPECT_EQ(sink_[1]->bytes_read(), 1100u);
}

}  // namespace
}  // namespace hrmc::app
