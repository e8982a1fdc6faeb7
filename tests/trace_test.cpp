// Tests for the observability subsystem: the trace ring, the sink,
// time-series sampling, the JSONL dump, and — most importantly — the
// invariant checker, including proof that it actually FAILS on
// corrupted traces (a checker that never fires is indistinguishable
// from no checker).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "harness/scenario.hpp"
#include "same_counters.hpp"
#include "trace/jsonl.hpp"
#include "trace/trace.hpp"
#include "trace/verify.hpp"

using namespace hrmc;
using trace::EventKind;
using trace::TraceRecord;

namespace {

TraceRecord rec(sim::SimTime t, std::uint16_t host, EventKind k,
                kern::Seq begin, kern::Seq end, std::uint64_t value,
                std::uint32_t aux = 0) {
  TraceRecord r;
  r.t = t;
  r.host = host;
  r.kind = k;
  r.seq_begin = begin;
  r.seq_end = end;
  r.value = value;
  r.aux = aux;
  return r;
}

}  // namespace

// --- ring -------------------------------------------------------------

TEST(TraceRing, StoresInOrderBelowCapacity) {
  trace::TraceRing ring(8);
  for (int i = 0; i < 5; ++i) {
    ring.push(rec(i, 0, EventKind::kSend, 0, 0, 0));
  }
  EXPECT_EQ(ring.size(), 5u);
  EXPECT_EQ(ring.dropped(), 0u);
  const auto recs = ring.records();
  ASSERT_EQ(recs.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(recs[i].t, i);
}

TEST(TraceRing, OverwritesOldestWhenFull) {
  trace::TraceRing ring(4);
  for (int i = 0; i < 6; ++i) {
    ring.push(rec(i, 0, EventKind::kSend, 0, 0, 0));
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 2u);
  const auto recs = ring.records();
  ASSERT_EQ(recs.size(), 4u);
  // Oldest surviving record first: 2, 3, 4, 5.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(recs[i].t, i + 2);
}

TEST(TraceRing, ClearResets) {
  trace::TraceRing ring(2);
  ring.push(rec(1, 0, EventKind::kSend, 0, 0, 0));
  ring.push(rec(2, 0, EventKind::kSend, 0, 0, 0));
  ring.push(rec(3, 0, EventKind::kSend, 0, 0, 0));
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_TRUE(ring.records().empty());
}

// --- sink -------------------------------------------------------------

TEST(TraceSink, DefaultConstructedSinkIsInert) {
  trace::TraceSink sink;
  // A null ring swallows every record.
  sink.emit(EventKind::kSend, 0, 100, 1);
  sink.emit_as(7, EventKind::kDrop, 0, 0, 58);
  EXPECT_FALSE(sink.active());
}

TEST(TraceSink, StampsTimeHostAndFields) {
  sim::Scheduler sched;
  trace::TraceRing ring(16);
  trace::TraceSink sink(&ring, &sched, 42);
  sched.schedule_at(sim::milliseconds(5), [&] {
    sink.emit(EventKind::kNakEmit, 100, 200, 77, 3, trace::kFlagSolicited);
  });
  sched.run_while([] { return true; }, sim::seconds(1));
  const auto recs = ring.records();
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].t, sim::milliseconds(5));
  EXPECT_EQ(recs[0].host, 42);
  EXPECT_EQ(recs[0].kind, EventKind::kNakEmit);
  EXPECT_EQ(recs[0].seq_begin, 100u);
  EXPECT_EQ(recs[0].seq_end, 200u);
  EXPECT_EQ(recs[0].value, 77u);
  EXPECT_EQ(recs[0].aux, 3u);
  EXPECT_EQ(recs[0].flags, trace::kFlagSolicited);
}

// --- JSONL ------------------------------------------------------------

TEST(TraceJsonl, OneObjectPerLine) {
  std::vector<TraceRecord> recs{
      rec(5, 0, EventKind::kSend, 1, 1461, 1000000),
      rec(9, 1, EventKind::kNakEmit, 100, 200, 100, 0),
  };
  std::ostringstream os;
  trace::write_jsonl(os, recs);
  const std::string out = os.str();
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 2);
  EXPECT_NE(out.find("\"kind\":\"send\""), std::string::npos);
  EXPECT_NE(out.find("\"kind\":\"nak\""), std::string::npos);
  EXPECT_NE(out.find("\"seq_end\":1461"), std::string::npos);
}

// --- verifier: synthetic traces ---------------------------------------

TEST(TraceVerify, CleanSyntheticTracePasses) {
  std::vector<TraceRecord> t;
  t.push_back(rec(0, 1, EventKind::kJoined, 1, 1, /*addr=*/42));
  t.push_back(rec(1000, 0, EventKind::kSend, 1, 1461, 1'000'000));
  t.push_back(rec(2000, 1, EventKind::kUpdate, 1461, 1461, 0));
  t.push_back(rec(3000, 0, EventKind::kRelease, 1, 1461, 0));
  const auto v = trace::verify(t);
  EXPECT_TRUE(v.ok) << (v.violations.empty() ? "" : v.violations[0]);
  EXPECT_EQ(v.releases_checked, 1u);
  EXPECT_EQ(v.sends_checked, 1u);
}

TEST(TraceVerify, FlagsReleaseBeyondReceiverReport) {
  std::vector<TraceRecord> t;
  t.push_back(rec(0, 1, EventKind::kJoined, 100, 100, 42));
  // The receiver never reported past 100, yet the sender releases 200.
  t.push_back(rec(1000, 0, EventKind::kRelease, 100, 200, 0));
  const auto v = trace::verify(t);
  EXPECT_FALSE(v.ok);
  EXPECT_GE(v.violation_count, 1u);
  ASSERT_FALSE(v.violations.empty());
  EXPECT_NE(v.violations[0].find("release"), std::string::npos);
}

TEST(TraceVerify, CrashExemptsReceiverFromReleaseGate) {
  std::vector<TraceRecord> t;
  t.push_back(rec(0, 1, EventKind::kJoined, 100, 100, 42));
  t.push_back(rec(500, 1, EventKind::kDown, 0, 0, 0));
  t.push_back(rec(1000, 0, EventKind::kRelease, 100, 200, 0));
  EXPECT_TRUE(trace::verify(t).ok);
}

TEST(TraceVerify, FlagsNakNeverAnswered) {
  std::vector<TraceRecord> t;
  t.push_back(rec(0, 1, EventKind::kJoined, 0, 0, 42));
  t.push_back(rec(1000, 1, EventKind::kNakEmit, 1000, 2000, /*rcv_nxt=*/1000));
  // Trace runs three simulated seconds with no retransmission.
  t.push_back(rec(sim::seconds(3), 1, EventKind::kUpdate, 1000, 1000, 0));
  const auto v = trace::verify(t);
  EXPECT_FALSE(v.ok);
  ASSERT_FALSE(v.violations.empty());
  EXPECT_NE(v.violations[0].find("never answered"), std::string::npos);
}

TEST(TraceVerify, NakAnsweredInTimePasses) {
  std::vector<TraceRecord> t;
  t.push_back(rec(0, 1, EventKind::kJoined, 0, 0, 42));
  t.push_back(rec(1000, 1, EventKind::kNakEmit, 1000, 2000, 1000));
  t.push_back(
      rec(sim::milliseconds(50), 0, EventKind::kRetransmit, 1000, 2000,
          1'000'000));
  t.push_back(rec(sim::seconds(3), 1, EventKind::kUpdate, 2000, 2000, 0));
  const auto v = trace::verify(t);
  EXPECT_TRUE(v.ok) << (v.violations.empty() ? "" : v.violations[0]);
  EXPECT_EQ(v.naks_checked, 1u);
}

TEST(TraceVerify, FlagsSendBurstAboveAdvertisedRate) {
  // One packet far larger than the token bucket at the advertised rate
  // (1 MB/s -> cap ~= 32 KB) — an impossible burst.
  std::vector<TraceRecord> t;
  t.push_back(rec(0, 0, EventKind::kSend, 0, 40000, 1'000'000));
  const auto v = trace::verify(t);
  EXPECT_FALSE(v.ok);
  ASSERT_FALSE(v.violations.empty());
  EXPECT_NE(v.violations[0].find("byte-tokens"), std::string::npos);
}

TEST(TraceVerify, FlagsNewDataDuringUrgentStop) {
  std::vector<TraceRecord> t;
  t.push_back(rec(0, 0, EventKind::kSend, 0, 1460, 1'000'000));
  t.push_back(rec(1000, 0, EventKind::kUrgentStop, 1460, 1460,
                  /*stop until=*/sim::seconds(5), 500'000));
  t.push_back(
      rec(sim::seconds(1), 0, EventKind::kSend, 1460, 2920, 1'000'000));
  const auto v = trace::verify(t);
  EXPECT_FALSE(v.ok);
  ASSERT_FALSE(v.violations.empty());
  EXPECT_NE(v.violations.back().find("urgent stop"), std::string::npos);
}

TEST(TraceVerify, RetransmissionDuringUrgentStopIsAllowed) {
  std::vector<TraceRecord> t;
  t.push_back(rec(0, 0, EventKind::kSend, 0, 1460, 1'000'000));
  t.push_back(rec(1000, 0, EventKind::kUrgentStop, 1460, 1460,
                  sim::seconds(5), 500'000));
  t.push_back(rec(sim::seconds(1), 0, EventKind::kRetransmit, 0, 1460,
                  1'000'000));
  EXPECT_TRUE(trace::verify(t).ok);
}

TEST(TraceVerify, FlagsRegressingPositionAndReleaseHead) {
  std::vector<TraceRecord> t;
  t.push_back(rec(0, 1, EventKind::kJoined, 100, 100, 42));
  t.push_back(rec(1000, 1, EventKind::kUpdate, 300, 300, 0));
  // A repairer's subtree minimum may trail its own position.
  t.push_back(rec(1500, 1, EventKind::kAggUpdate, 200, 200, 0));
  t.push_back(rec(2000, 0, EventKind::kRelease, 100, 300, 0));
  // No re-anchor, yet the position and the release head move back.
  t.push_back(rec(3000, 1, EventKind::kUpdate, 200, 200, 0));
  t.push_back(rec(4000, 0, EventKind::kRelease, 100, 250, 0));
  // A crash-restart re-anchors the baseline.
  t.push_back(rec(5000, 1, EventKind::kResync, 150, 150, 0));
  t.push_back(rec(6000, 1, EventKind::kUpdate, 160, 160, 0));
  const auto v = trace::verify(t);
  ASSERT_EQ(v.violations.size(), 2u);
  EXPECT_NE(v.violations[0].find("position 200 regressed"), std::string::npos);
  EXPECT_NE(v.violations[1].find("release head 250 regressed"),
            std::string::npos);
}

TEST(TraceVerify, OptionsDisableIndividualChecks) {
  std::vector<TraceRecord> t;
  t.push_back(rec(0, 1, EventKind::kJoined, 100, 100, 42));
  t.push_back(rec(1000, 0, EventKind::kRelease, 100, 200, 0));
  trace::VerifyOptions opt;
  opt.check_release = false;
  EXPECT_TRUE(trace::verify(t, opt).ok);
}

// --- verifier over real traces ---------------------------------------

namespace {

harness::Scenario traced_lan(std::uint64_t seed) {
  harness::Workload wl;
  wl.file_bytes = 2 * 1024 * 1024;
  harness::Scenario sc =
      harness::lan_scenario(3, 10e6, 256 * 1024, wl, seed);
  sc.trace.enabled = true;
  sc.trace.sample_period = sim::milliseconds(100);
  return sc;
}

}  // namespace

TEST(TraceHarness, CleanRunProducesVerifiableTrace) {
  const harness::RunResult r = harness::run_transfer(traced_lan(101));
  ASSERT_TRUE(r.completed);
  EXPECT_FALSE(r.trace_records.empty());
  EXPECT_FALSE(r.samples.empty());
  EXPECT_EQ(r.trace_dropped, 0u);
  const auto v = trace::verify(r.trace_records);
  EXPECT_TRUE(v.ok) << (v.violations.empty() ? "" : v.violations[0]);
  EXPECT_GT(v.releases_checked, 0u);
  EXPECT_GT(v.sends_checked, 0u);
  // Samples carry real curves: the rate is nonzero mid-transfer.
  bool nonzero_rate = false;
  for (const auto& p : r.samples) nonzero_rate |= p.rate_bps > 0;
  EXPECT_TRUE(nonzero_rate);
}

TEST(TraceHarness, SamplingLeavesTheRunUnchanged) {
  // Samples are read where the engine checks for completion, so a
  // sampled run executes exactly the events of the unsampled one.
  harness::Scenario sc = traced_lan(101);
  sc.topo.groups.push_back(net::group_b(2));
  const harness::RunResult sampled = harness::run_transfer(sc);
  const sim::SimTime period = sc.trace.sample_period;
  sc.trace.sample_period = 0;
  const harness::RunResult plain = harness::run_transfer(sc);
  ASSERT_TRUE(sampled.completed);
  EXPECT_TRUE(plain.samples.empty());
  EXPECT_EQ(sampled.events_executed, plain.events_executed);
  EXPECT_EQ(sampled.rng_digest, plain.rng_digest);
  harness::expect_same_counters(sampled, plain);
  EXPECT_EQ(sampled.trace_records.size(), plain.trace_records.size());
  // One sample per period tick from t = 0 up to the run's end.
  ASSERT_GT(sampled.samples.size(), 1u);
  for (std::size_t k = 0; k < sampled.samples.size(); ++k) {
    EXPECT_EQ(sampled.samples[k].t, static_cast<sim::SimTime>(k) * period);
  }
}

TEST(TraceHarness, LossyFaultedRunStillVerifies) {
  harness::Scenario sc = traced_lan(202);
  net::GilbertElliottConfig ge;
  sc.faults.burst_loss(0, sim::milliseconds(500), ge)
      .burst_loss_stop(0, sim::milliseconds(1500))
      .link_down(1, sim::seconds(2))
      .link_up(1, sim::milliseconds(2300))
      .crash(2, sim::milliseconds(2600))
      .restart(2, sim::milliseconds(3600));
  const harness::RunResult r = harness::run_transfer(sc);
  ASSERT_TRUE(r.completed);
  const auto v = trace::verify(r.trace_records);
  EXPECT_TRUE(v.ok) << (v.violations.empty() ? "" : v.violations[0]);
  EXPECT_GT(v.releases_checked, 0u);
}

TEST(TraceHarness, CorruptedRealTraceFailsVerification) {
  harness::RunResult r = harness::run_transfer(traced_lan(303));
  ASSERT_TRUE(r.completed);
  // Strip every sender answer and inject a NAK for a hole far beyond
  // anything the run covers (so no real UPDATE moots it), then let the
  // trace run 10 simulated seconds past it: the doctored trace must NOT
  // verify — an unanswerable NAK aged past the bound.
  std::vector<TraceRecord> doctored;
  for (const TraceRecord& rr : r.trace_records) {
    if (rr.kind == EventKind::kRetransmit || rr.kind == EventKind::kNakErr) {
      continue;
    }
    doctored.push_back(rr);
  }
  ASSERT_FALSE(doctored.empty());
  TraceRecord nak = rec(doctored.front().t, 1, EventKind::kNakEmit,
                        0x40000000u, 0x40010000u, 0);
  doctored.insert(doctored.begin() + 1, nak);
  doctored.push_back(rec(doctored.back().t + sim::seconds(10), 1,
                         EventKind::kUpdate, 0, 0, 0));
  EXPECT_FALSE(trace::verify(doctored).ok);
}

TEST(TraceHarness, TracingOffByDefaultLeavesResultEmpty) {
  harness::Workload wl;
  wl.file_bytes = 512 * 1024;
  harness::Scenario sc = harness::lan_scenario(1, 10e6, 256 * 1024, wl, 7);
  const harness::RunResult r = harness::run_transfer(sc);
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(r.trace_records.empty());
  EXPECT_TRUE(r.samples.empty());
}
