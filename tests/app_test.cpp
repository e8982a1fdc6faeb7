#include "app/apps.hpp"

#include <gtest/gtest.h>

#include "app/disk.hpp"
#include "app/pattern.hpp"
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

}  // namespace
}  // namespace hrmc::app
