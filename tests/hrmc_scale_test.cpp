// Million-receiver scaling: the sharded MemberTable under 10k-member
// differential and churn workloads, the per-round probe cap, the
// local-repairer hierarchy end to end (including repairer crash
// failover and clean-leave re-homing), SRM-style NAK suppression, and
// the modeled-receiver fast path.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "harness/scenario.hpp"
#include "hrmc/member.hpp"
#include "hrmc/wire.hpp"
#include "net/fault.hpp"
#include "same_counters.hpp"
#include "sim/random.hpp"

namespace hrmc {
namespace {

using proto::McMember;
using proto::MemberTable;

/// Receiver address spread over 40 /16 subtree prefixes, mirroring the
/// topology's per-group address plan.
net::Addr subtree_addr(unsigned i) {
  return net::make_addr(10, 1 + i / 250, (i / 250) % 250, i % 250 + 1);
}

kern::Seq ref_min(const std::map<net::Addr, kern::Seq>& ref,
                  kern::Seq fallback) {
  kern::Seq mn = fallback;
  bool first = true;
  for (const auto& [a, s] : ref) {
    (void)a;
    if (first || kern::seq_before(s, mn)) mn = s;
    first = false;
  }
  return mn;
}

// ---------------------------------------------------------------------
// Sharded MemberTable
// ---------------------------------------------------------------------

TEST(ScaleMemberTable, DifferentialAgainstMapAt10k) {
  constexpr unsigned kMembers = 10'000;
  MemberTable t;
  std::map<net::Addr, kern::Seq> ref;
  for (unsigned i = 0; i < kMembers; ++i) {
    const net::Addr a = subtree_addr(i);
    t.add(a, 1);
    ref[a] = 1;
  }
  ASSERT_EQ(t.size(), kMembers);

  sim::Rng rng(20260808);
  kern::Seq front = 1;  // stream head the fast members advance toward
  constexpr unsigned kOps = 2'000;
  for (unsigned op = 0; op < kOps; ++op) {
    const net::Addr a = subtree_addr(
        static_cast<unsigned>(rng.uniform_int(0, kMembers - 1)));
    McMember* m = t.find(a);
    ASSERT_NE(m, nullptr);
    switch (rng.uniform_int(0, 9)) {
      case 0: {  // aggregated laggard registering: position drops
        const auto delta = static_cast<kern::Seq>(rng.uniform_int(0, 1999));
        const kern::Seq down = ref[a] > delta ? ref[a] - delta : 1;
        t.set_position(m, down);
        ref[a] = down;
        break;
      }
      case 1: {  // leave + re-JOIN at the stream head
        t.remove(a);
        ref.erase(a);
        McMember* back = t.add(a, front);
        ASSERT_NE(back, nullptr);
        ref[a] = front;
        break;
      }
      default: {  // ordinary feedback: monotone advance
        front += static_cast<kern::Seq>(rng.uniform_int(1, 1460));
        t.advance(m, front);
        ref[a] = std::max(ref[a], front);
        break;
      }
    }
    ASSERT_EQ(t.min_next_expected(front), ref_min(ref, front))
        << "after op " << op;
  }

  // The whole run queried the minimum after every op. The uncached scan
  // walks all 10k members per query (20M visits); the shard cache must
  // stay orders of magnitude below that.
  EXPECT_LT(t.min_rescan_work(), kOps * kMembers / 10)
      << "release-minimum cache is doing O(members) work per query";
}

TEST(ScaleMemberTable, MassEvictionReJoinInterleaved) {
  constexpr unsigned kMembers = 10'000;
  MemberTable t;
  std::map<net::Addr, kern::Seq> ref;
  for (unsigned i = 0; i < kMembers; ++i) {
    const net::Addr a = subtree_addr(i);
    t.add(a, 100 + i % 977);
    ref[a] = 100 + i % 977;
  }

  // Evict four whole /16 subtrees at once (a partitioned site), then
  // re-JOIN half of each at a later position, interleaving the waves.
  for (unsigned wave = 0; wave < 4; ++wave) {
    const unsigned lo = wave * 250 * 4;
    for (unsigned i = lo; i < lo + 250 * 4 && i < kMembers; ++i) {
      const net::Addr a = subtree_addr(i);
      EXPECT_TRUE(t.remove(a));
      ref.erase(a);
    }
    ASSERT_EQ(t.min_next_expected(1), ref_min(ref, 1));
    for (unsigned i = lo; i < lo + 250 * 2 && i < kMembers; ++i) {
      const net::Addr a = subtree_addr(i);
      t.add(a, 5'000'000 + i);
      ref[a] = 5'000'000 + i;
    }
    ASSERT_EQ(t.min_next_expected(1), ref_min(ref, 1));
    ASSERT_EQ(t.size(), ref.size());
  }

  // A second add of a live address is a no-op (the tombstone/refresh
  // path at the sender relies on this), and the min is unaffected.
  const net::Addr dup = subtree_addr(kMembers - 1);
  McMember* existing = t.find(dup);
  ASSERT_NE(existing, nullptr);
  const kern::Seq pos = existing->next_expected;
  EXPECT_EQ(t.add(dup, 1), existing);
  EXPECT_EQ(existing->next_expected, pos);
  EXPECT_EQ(t.min_next_expected(1), ref_min(ref, 1));
}

TEST(ScaleMemberTable, MultiplicityAndSetPosition) {
  MemberTable t;
  McMember* leaf = t.add(net::make_addr(10, 1, 0, 1), 1000);
  McMember* agg = t.add(net::make_addr(10, 2, 0, 1), 2000);
  EXPECT_EQ(t.total_weight(), 2u);

  t.set_multiplicity(agg, 1000);
  EXPECT_EQ(t.total_weight(), 1001u);
  t.set_multiplicity(agg, 250);
  EXPECT_EQ(t.total_weight(), 251u);

  // set_position moves both ways and keeps the cached minimum honest.
  EXPECT_EQ(t.min_next_expected(1), 1000u);
  EXPECT_TRUE(t.set_position(agg, 500));
  EXPECT_EQ(t.min_next_expected(1), 500u);
  EXPECT_TRUE(t.set_position(agg, 3000));
  EXPECT_EQ(t.min_next_expected(1), 1000u);
  EXPECT_FALSE(t.set_position(agg, 3000));  // no change
  EXPECT_TRUE(t.advance(leaf, 4000));
  EXPECT_EQ(t.min_next_expected(1), 3000u);
  EXPECT_TRUE(t.remove(agg->addr));
  EXPECT_EQ(t.total_weight(), 1u);
  EXPECT_EQ(t.min_next_expected(1), 4000u);
}

// ---------------------------------------------------------------------
// Wire
// ---------------------------------------------------------------------

TEST(ScaleWire, AggUpdateRoundTrip) {
  auto skb = kern::SkBuff::alloc(10, 64);
  proto::Header h;
  h.sport = 7500;
  h.dport = 7500;
  h.seq = 0xfffffff0u;  // near the wrap: subtree minima must survive it
  h.rate = 1'000'000;   // represented member count
  h.length = 0;
  h.tries = 1;
  h.type = proto::PacketType::kAggUpdate;
  h.urg = true;  // probe-solicited
  proto::write_header(*skb, h);
  auto parsed = proto::read_header(*skb);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->type, proto::PacketType::kAggUpdate);
  EXPECT_EQ(parsed->seq, 0xfffffff0u);
  EXPECT_EQ(parsed->rate, 1'000'000u);
  EXPECT_TRUE(parsed->urg);
}

// ---------------------------------------------------------------------
// End to end
// ---------------------------------------------------------------------

harness::Scenario base_scenario(int groups, int per_group,
                                double loss_rate, std::uint64_t seed) {
  harness::Scenario sc;
  sc.topo.network_bps = 100e6;
  sc.topo.seed = sim::substream_seed(seed, "topo");
  for (int g = 0; g < groups; ++g) {
    net::GroupSpec spec = net::group_a(per_group);
    spec.loss_rate = loss_rate;
    sc.topo.groups.push_back(spec);
  }
  sc.workload.file_bytes = 1024 * 1024;
  sc.seed = seed;
  return sc;
}

TEST(ScaleHierarchy, EndToEndLocalRepair) {
  harness::Scenario sc = base_scenario(3, 3, 0.02, 97001);
  sc.hierarchy.enabled = true;
  const harness::RunResult r = harness::run_transfer(sc);
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(r.verify_ok);
  EXPECT_FALSE(r.any_stream_error);
  // The sender hears one aggregated report stream per subtree...
  EXPECT_GT(r.sender.agg_updates_received, 0u);
  // ...and with 2% path loss the repairers did local work: child NAKs
  // answered from cache or forwarded upstream as their own.
  EXPECT_GT(r.receivers_total.repairs_served +
                r.receivers_total.naks_forwarded,
            0u);
}

TEST(ScaleHierarchy, RepairerCrashFailsChildrenOver) {
  // Enough path loss that the dead window (250-1100 ms) is guaranteed
  // to produce child NAKs the crashed repairer cannot answer — the
  // failover trigger is repair_failover_naks unanswered resends.
  harness::Scenario sc = base_scenario(2, 3, 0.03, 97002);
  sc.hierarchy.enabled = true;  // repairers: slots 0 and 3
  net::FaultEvent crash;
  crash.kind = net::FaultKind::kReceiverCrash;
  crash.at = sim::milliseconds(250);
  crash.target = 0;
  net::FaultEvent restart;
  restart.kind = net::FaultKind::kReceiverRestart;
  restart.at = sim::milliseconds(1100);
  restart.target = 0;
  sc.faults.events = {crash, restart};
  const harness::RunResult r = harness::run_transfer(sc);
  ASSERT_EQ(r.survivors_completed, r.survivor_count);
  EXPECT_FALSE(r.any_stream_error);
  // The dead repairer's children re-homed to the sender (kStall policy:
  // nobody may be released past, so failover is the only way forward).
  EXPECT_GT(r.receivers_total.repair_failovers, 0u);
}

TEST(ScaleHierarchy, RepairerCleanLeaveRehomesSubtree) {
  harness::Scenario sc = base_scenario(2, 3, 0.005, 97003);
  sc.hierarchy.enabled = true;
  harness::ChurnEvent leave;
  leave.at = sim::milliseconds(300);
  leave.receiver = 0;  // the group-0 repairer departs mid-stream
  leave.join = false;
  sc.churn = {leave};
  const harness::RunResult r = harness::run_transfer(sc);
  ASSERT_EQ(r.survivors_completed, r.survivor_count);
  EXPECT_FALSE(r.any_stream_error);
  EXPECT_GT(r.receivers_total.repair_failovers, 0u);
  EXPECT_GT(r.sender.leaves_received, 0u);
}

TEST(ScaleSuppression, PeerNaksSuppressDuplicates) {
  harness::Scenario sc = base_scenario(1, 6, 0.03, 97004);
  sc.proto.nak_suppression = true;
  sc.proto.feedback_seed = 97004;
  const harness::RunResult r = harness::run_transfer(sc);
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(r.verify_ok);
  // Correlated router loss hits all six receivers at once; overheard
  // NAK copies must cancel some of the redundant backoff timers.
  EXPECT_GT(r.receivers_total.naks_peer_suppressed, 0u);
}

TEST(ScaleProbes, PerRoundCapDefersColdBursts) {
  harness::Scenario sc = base_scenario(1, 1, 0.0, 97005);
  sc.topo.groups.clear();
  for (int g = 0; g < 5; ++g) {
    sc.topo.groups.push_back(net::group_a(30));
  }
  for (std::size_t i = 0; i < 150; ++i) {
    harness::ModeledGroup mg;
    mg.receiver = i;
    mg.population = 100;
    mg.leaf_loss = 0.0;
    sc.modeled.push_back(mg);
  }
  const harness::RunResult r = harness::run_transfer(sc);
  ASSERT_TRUE(r.completed);
  // 150 members can owe probes at once; past the kMaxProbesPerRound cap
  // the rest must be pushed to later rounds, never emitted as one burst.
  EXPECT_GT(r.sender.probes_deferred, 0u);
  EXPECT_GT(r.sender.probes_sent, 0u);
}

TEST(ScaleModeled, PopulationCompletesDeterministically) {
  auto make = [] {
    harness::Scenario sc = base_scenario(1, 1, 0.0, 97006);
    sc.topo.groups.clear();
    sc.topo.groups.push_back(net::group_a(5));
    for (std::size_t i = 0; i < 5; ++i) {
      harness::ModeledGroup mg;
      mg.receiver = i;
      mg.population = 1000;
      mg.leaf_loss = 1e-4;
      sc.modeled.push_back(mg);
    }
    sc.proto.feedback_seed = 97006;
    return sc;
  };
  const harness::RunResult a = harness::run_transfer(make());
  const harness::RunResult b = harness::run_transfer(make());
  ASSERT_TRUE(a.completed);
  EXPECT_EQ(a.modeled_leaves, 5000u);
  // Independent leaf-tail loss is absorbed inside the subtree: local
  // repairs happen, and the leaves they served are the suppressed NAKs.
  EXPECT_GT(a.receivers_total.repairs_served, 0u);
  EXPECT_GT(a.receivers_total.naks_suppressed, 0u);
  // Bit-for-bit repeatable.
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.rng_digest, b.rng_digest);
  harness::expect_same_counters(a, b);
}

TEST(ScaleModeled, EvictionPoliciesCompleteAt10kLeaves) {
  using proto::EvictionPolicy;
  for (EvictionPolicy policy :
       {EvictionPolicy::kStall, EvictionPolicy::kEvict,
        EvictionPolicy::kRmcFallback}) {
    harness::Scenario sc = base_scenario(1, 1, 0.0, 97007);
    sc.topo.groups.clear();
    sc.topo.groups.push_back(net::group_a(10));
    for (std::size_t i = 0; i < 10; ++i) {
      harness::ModeledGroup mg;
      mg.receiver = i;
      mg.population = 1000;
      mg.leaf_loss = 1e-5;
      sc.modeled.push_back(mg);
    }
    sc.proto.eviction_policy = policy;
    const harness::RunResult r = harness::run_transfer(sc);
    EXPECT_TRUE(r.completed)
        << "policy " << static_cast<int>(policy);
    EXPECT_EQ(r.modeled_leaves, 10'000u);
  }
}

}  // namespace
}  // namespace hrmc
