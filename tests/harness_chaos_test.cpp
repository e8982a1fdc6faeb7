// The chaos engine itself: deterministic generation, repro-file
// round-tripping, the pinned seed block the oracle must clear, and the
// full find → shrink → replay loop on an injected failure.
#include "harness/chaos.hpp"

#include <gtest/gtest.h>

#include "net/fault.hpp"

namespace hrmc::harness {
namespace {

TEST(Chaos, GenerateSpecIsDeterministic) {
  for (std::uint64_t seed : {1ull, 42ull, 337ull, 496ull, 99999ull}) {
    const ChaosSpec a = generate_spec(seed);
    const ChaosSpec b = generate_spec(seed);
    // Serialized form is exact (doubles print round-trip), so string
    // equality is spec equality.
    EXPECT_EQ(serialize_spec(a), serialize_spec(b)) << "seed=" << seed;
  }
}

TEST(Chaos, GeneratedFaultsAlwaysCarryRecovery) {
  // Survivable-by-construction: every onset has its recovery partner in
  // the plan, targeting the same entity, at a later or equal time —
  // across both the chaos generator and the soak-segment generator.
  const auto check = [](const ChaosSpec& s, std::uint64_t seed) {
    for (const net::FaultEvent& ev : s.faults) {
      const bool onset = ev.kind == net::FaultKind::kReceiverCrash ||
                         ev.kind == net::FaultKind::kLinkDown ||
                         ev.kind == net::FaultKind::kPartition ||
                         ev.kind == net::FaultKind::kBurstLossStart ||
                         ev.kind == net::FaultKind::kReorderStart ||
                         ev.kind == net::FaultKind::kDuplicateStart ||
                         ev.kind == net::FaultKind::kCorruptStart ||
                         ev.kind == net::FaultKind::kControlLossStart ||
                         ev.kind == net::FaultKind::kJitterStart ||
                         ev.kind == net::FaultKind::kTrunkDown ||
                         ev.kind == net::FaultKind::kWirelessStart;
      if (!onset) continue;
      bool recovered = false;
      for (const net::FaultEvent& other : s.faults) {
        if (other.target == ev.target && other.at >= ev.at &&
            static_cast<int>(other.kind) == static_cast<int>(ev.kind) + 1) {
          recovered = true;
          break;
        }
      }
      EXPECT_TRUE(recovered)
          << "seed=" << seed << " kind=" << static_cast<int>(ev.kind);
    }
  };
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    check(generate_spec(seed), seed);
  }
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    check(generate_soak_spec(seed), seed);
  }
}

TEST(Chaos, SerializeParseRoundTrip) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const ChaosSpec s = generate_spec(seed);
    const std::string text = serialize_spec(s);
    const auto back = parse_spec(text);
    ASSERT_TRUE(back.has_value()) << "seed=" << seed;
    EXPECT_EQ(serialize_spec(*back), text) << "seed=" << seed;
  }
}

TEST(Chaos, ParseToleratesCommentsAndBlankLines) {
  const ChaosSpec s = generate_spec(7);
  std::string text = serialize_spec(s);
  text += "# trailing comment like the sweep driver writes\n\n";
  const auto back = parse_spec(text);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(serialize_spec(*back), serialize_spec(s));
}

TEST(Chaos, ParseRejectsMalformedInput) {
  EXPECT_FALSE(parse_spec("").has_value());
  EXPECT_FALSE(parse_spec("not-a-repro\nseed 1\n").has_value());
  const std::string good = serialize_spec(generate_spec(3));
  EXPECT_FALSE(parse_spec(good + "mystery_key 42\n").has_value());
  EXPECT_FALSE(
      parse_spec("hrmc-chaos-repro v1\ngroup 2 1\neviction 9\n").has_value());
  EXPECT_FALSE(
      parse_spec("hrmc-chaos-repro v1\ngroup 2 1\nfault 99 0 0\n").has_value());
  // No topology at all: nothing to run.
  EXPECT_FALSE(parse_spec("hrmc-chaos-repro v1\nseed 5\n").has_value());
}

TEST(Chaos, PinnedSeedBlockPassesOracle) {
  // A slice of the CI chaos-smoke block. Any failure here is a protocol
  // regression (or a new oracle false positive — both need a human).
  const auto outcomes = sweep(1, 120);
  for (const auto& o : outcomes) {
    EXPECT_TRUE(o.verdict.ok)
        << "seed " << o.seed << ": " << o.verdict.failure;
  }
}

TEST(Chaos, TruncatedTraceFailsOracle) {
  // A wrapped ring has lost the oldest records, so trace::verify would
  // see a partial history: the oracle must fail the run, not pass it
  // with no invariant checked.
  const ChaosSpec s = generate_spec(17);
  Scenario sc = to_scenario(s);
  sc.trace.ring_capacity = 64;
  const RunResult r = run_transfer(sc);
  ASSERT_GT(r.trace_dropped, 0u);
  ASSERT_TRUE(judge_result(s, run_transfer(to_scenario(s))).ok);
  const ChaosVerdict v = judge_result(s, r);
  EXPECT_FALSE(v.ok);
  EXPECT_EQ(v.failure, "trace truncated: " + std::to_string(r.trace_dropped) +
                           " records dropped, invariants unchecked");
}

TEST(Chaos, OracleChecksTheCountsATransferMakesExact) {
  // Seed 8 runs kStall over three receivers: it crashes (and restarts)
  // receiver 0 and churns receiver 1, so only receiver 2 owes its count.
  const ChaosSpec s = generate_spec(8);
  ASSERT_EQ(s.eviction, proto::EvictionPolicy::kStall);
  ASSERT_EQ(s.receiver_count(), 3u);
  ASSERT_EQ(s.faults[0].kind, net::FaultKind::kReceiverCrash);
  ASSERT_EQ(s.faults[0].target, 0u);
  ASSERT_EQ(s.churn.size(), 1u);
  ASSERT_EQ(s.churn[0].receiver, 1u);
  const RunResult r = run_transfer(to_scenario(s));
  ASSERT_TRUE(judge_result(s, r).ok);
  const std::string short_by_one = std::to_string(s.file_bytes - 1);
  const std::string whole = std::to_string(s.file_bytes);

  RunResult bad = r;
  bad.sender.bytes_released -= 1;
  EXPECT_EQ(judge_result(s, bad).failure, "release drift: released " +
                                              short_by_one + " of " + whole +
                                              " stream bytes");

  bad = r;
  bad.sender.nak_errs_sent = 1;
  EXPECT_EQ(judge_result(s, bad).failure, "NAK_ERR sent under kStall");
  ChaosSpec fallback = s;
  fallback.eviction = proto::EvictionPolicy::kRmcFallback;
  EXPECT_TRUE(judge_result(fallback, bad).ok);

  bad = r;
  bad.per_receiver[2].bytes_delivered -= 1;
  EXPECT_EQ(judge_result(s, bad).failure, "delivery drift: receiver 2 "
                                          "delivered " +
                                              short_by_one + " of " + whole +
                                              " bytes");
  for (std::size_t i : {0, 1}) {  // crashed, churned: no count owed
    bad = r;
    bad.per_receiver[i].bytes_delivered -= 1;
    EXPECT_TRUE(judge_result(s, bad).ok) << "receiver " << i;
  }
}

TEST(Chaos, OracleChecksNicHandOffsAgainstHostIntake) {
  // One packet counted as still held by a NIC, when the host already
  // took it, fails the run: for the sender pair and for the receivers.
  const ChaosSpec s = generate_spec(8);
  const RunResult r = run_transfer(to_scenario(s));
  ASSERT_TRUE(judge_result(s, r).ok);
  ASSERT_GT(r.receiver_nics.rx_packets, 0u);
  const std::string unaccounted =
      "unaccounted packet: NIC hand-offs and host intake do not close";
  RunResult bad = r;
  bad.sender_nic_rx_held += 1;
  EXPECT_EQ(judge_result(s, bad).failure, unaccounted);
  bad = r;
  bad.receiver_nics_rx_held += 1;
  EXPECT_EQ(judge_result(s, bad).failure, unaccounted);
}

TEST(Chaos, Seed1844KeepsEveryLiveMember) {
  // Chaos seed 1844: kRmcFallback, a group-C and a group-A subtree of
  // three receivers each, no faults. Probes queued behind the sender's
  // own tx ring once counted as unanswered retries, so the sender
  // released past a live member and that member's NAK for the released
  // data earned a NAK_ERR. A member is dead only after kMemberTimeout of
  // silence.
  const ChaosSpec s = generate_spec(1844);
  ASSERT_EQ(s.eviction, proto::EvictionPolicy::kRmcFallback);
  ASSERT_TRUE(s.faults.empty());
  const RunResult r = run_transfer(to_scenario(s));
  EXPECT_EQ(r.sender.dead_member_releases, 0u);
  const ChaosVerdict v = judge_result(s, r);
  EXPECT_TRUE(v.ok) << v.failure;
}

TEST(Chaos, JudgeIsDeterministic) {
  const ChaosSpec s = generate_spec(17);
  const ChaosVerdict a = judge(s);
  const ChaosVerdict b = judge(s);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.failure, b.failure);
}

/// An unrecovered crash under kStall: the window stalls forever, the
/// sender cannot finish, and the oracle must say so. (The generator
/// never emits this — it is the injected failure for the shrinker.)
ChaosSpec unrecovered_crash_spec() {
  ChaosSpec s;
  s.seed = 424242;
  s.network_bps = 10e6;
  s.file_bytes = 128 * 1024;
  s.kernel_buf = 64 * 1024;
  s.eviction = proto::EvictionPolicy::kStall;
  s.time_limit = sim::seconds(10);
  s.group_kind = {0, 0};
  s.group_receivers = {2, 1};
  net::FaultPlan plan;
  plan.crash(1, sim::milliseconds(60));
  s.faults = plan.events;
  return s;
}

TEST(Chaos, InjectedFailureShrinksToDeterministicRepro) {
  const ChaosSpec failing = unrecovered_crash_spec();
  const ChaosVerdict v = judge(failing);
  ASSERT_FALSE(v.ok);

  const ChaosSpec small = shrink(failing, 60);
  // The crash is load-bearing, so the shrinker cannot drop it; the
  // stream and the topology both shrink to their floors.
  ASSERT_EQ(small.faults.size(), 1u);
  EXPECT_EQ(small.faults[0].kind, net::FaultKind::kReceiverCrash);
  EXPECT_EQ(small.file_bytes, 4096u);
  EXPECT_LT(small.receiver_count(), failing.receiver_count());

  // The shrunk spec still fails, for the same reason, every time.
  const ChaosVerdict s1 = judge(small);
  const ChaosVerdict s2 = judge(small);
  ASSERT_FALSE(s1.ok);
  EXPECT_EQ(s1.failure, s2.failure);
  EXPECT_EQ(s1.failure, v.failure);

  // And the written repro replays bit-identically after a round trip.
  const auto reparsed = parse_spec(serialize_spec(small));
  ASSERT_TRUE(reparsed.has_value());
  const ChaosVerdict s3 = judge(*reparsed);
  ASSERT_FALSE(s3.ok);
  EXPECT_EQ(s3.failure, s1.failure);
}

TEST(Chaos, ShrinkSanitizesFaultTargetsWhenDroppingReceivers) {
  // The crash targets the last receiver; dropping that receiver must
  // also drop the fault (a shrunk spec never trips arm-time validation)
  // — which makes the scenario pass, so the shrinker keeps the receiver
  // and the repro stays valid.
  ChaosSpec s = unrecovered_crash_spec();
  s.group_kind = {0};
  s.group_receivers = {3};
  net::FaultPlan plan;
  plan.crash(2, sim::milliseconds(60));
  s.faults = plan.events;
  const ChaosSpec small = shrink(s, 40);
  ASSERT_EQ(small.faults.size(), 1u);
  EXPECT_LT(small.faults[0].target, small.receiver_count());
  ASSERT_FALSE(judge(small).ok);
}

TEST(Chaos, JoinLossRaceRegression) {
  // Chaos seed 496 (found by the sweep): group-C baseline loss ate the
  // receiver's initial JOIN, the whole short transfer ran against an
  // empty member table, and the sender released everything RMC-style —
  // the receiver's late NAK then earned NAK_ERR and a stream error. The
  // receiver now re-JOINs after an RTO once DATA arrives while it is
  // still unjoined; this pins both the fix and the chaos spec shape.
  ChaosSpec s;
  s.seed = 496;
  s.network_bps = 100e6;
  s.file_bytes = 65536;
  s.kernel_buf = 131072;
  s.eviction = proto::EvictionPolicy::kEvict;
  s.group_kind = {2};
  s.group_receivers = {1};
  const RunResult r = run_transfer(to_scenario(s));
  EXPECT_TRUE(r.completed);
  EXPECT_FALSE(r.any_stream_error);
  EXPECT_GE(r.receivers_total.join_fast_retries, 1u);
  const ChaosVerdict v = judge_result(s, r);
  EXPECT_TRUE(v.ok) << v.failure;
}

}  // namespace
}  // namespace hrmc::harness
