// Memory-pressure robustness (DESIGN.md §16): the accountant's ledger
// semantics, graceful degradation at every consumer (alloc failure
// during a URG-JOIN resync, repairer death with a byte-bound cache,
// FEC under OOM), budgeted-run determinism, the trace budget
// invariant, and a pinned slice of the mem-pressure chaos block.
#include "kern/mem.hpp"

#include <gtest/gtest.h>

#include "harness/chaos.hpp"
#include "harness/scenario.hpp"
#include "trace/verify.hpp"

namespace hrmc {
namespace {

using harness::RunResult;
using harness::Scenario;
using kern::MemAccountant;
using kern::MemComponent;
using kern::MemLedger;

// --- accountant unit semantics ---------------------------------------

TEST(MemAccountant, BudgetRefusesAndLedgerNeverExceeds) {
  MemAccountant mem(1000, 7);
  MemLedger h1(mem);
  MemLedger h2(mem);
  EXPECT_TRUE(h1.try_charge(MemComponent::kSendWindow, 600));
  EXPECT_TRUE(h1.try_charge(MemComponent::kReassembly, 400));
  // Exactly at the budget: the next byte is refused, nothing charged.
  EXPECT_FALSE(h1.try_charge(MemComponent::kReassembly, 1));
  EXPECT_EQ(h1.live(), 1000u);
  EXPECT_EQ(mem.counters().budget_denials, 1u);
  // Per-host ledgers are independent.
  EXPECT_TRUE(h2.try_charge(MemComponent::kReassembly, 1000));
  EXPECT_EQ(mem.peak_any_host(), 1000u);
  // Uncharge frees exactly what it names, per component.
  h1.uncharge(MemComponent::kSendWindow, 600);
  EXPECT_EQ(h1.live(), 400u);
  EXPECT_EQ(h1.component(MemComponent::kReassembly), 400u);
  EXPECT_TRUE(h1.try_charge(MemComponent::kFecData, 600));
  // The invariant bound: live never exceeded the budget at any point.
  EXPECT_LE(mem.peak_any_host(), 1000u);
}

TEST(MemAccountant, SqueezeLowersEffectiveBudgetAndReportsOverage) {
  MemAccountant mem(1000, 7);
  MemLedger h1(mem);
  ASSERT_TRUE(h1.try_charge(MemComponent::kFecParity, 800));
  EXPECT_EQ(h1.overage(), 0u);
  mem.set_squeeze(0.5);
  EXPECT_EQ(mem.effective_budget(), 500u);
  // The squeeze pushes the ledger past the *effective* line without any
  // new charge; the consumer sees the overage and must evict it.
  EXPECT_EQ(h1.overage(), 300u);
  EXPECT_FALSE(h1.try_charge(MemComponent::kFecParity, 1));
  h1.uncharge(MemComponent::kFecParity, 300);
  EXPECT_EQ(h1.overage(), 0u);
  mem.set_squeeze(0.0);
  EXPECT_TRUE(h1.try_charge(MemComponent::kFecParity, 400));
  // The full budget still held throughout the squeeze.
  EXPECT_LE(mem.peak_any_host(), 1000u);
}

TEST(MemAccountant, ZeroBudgetZeroProbRefusesNothingAndDrawsNothing) {
  MemAccountant mem(0, 7);
  MemLedger h3(mem);
  const std::uint64_t digest0 = mem.rng_digest();
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(h3.try_charge(MemComponent::kReassembly, 10000));
    EXPECT_TRUE(h3.admit(1 << 20));
  }
  EXPECT_EQ(mem.counters().alloc_fails, 0u);
  // The determinism contract: no fault window armed, no RNG consumed.
  EXPECT_EQ(mem.rng_digest(), digest0);
}

TEST(MemAccountant, AllocFailProbIsSeededAndDeterministic) {
  const auto refusals = [] {
    MemAccountant mem(0, 99);
    MemLedger h5(mem);
    mem.set_alloc_fail_prob(0.3);
    std::uint64_t n = 0;
    for (int i = 0; i < 1000; ++i) n += h5.admit(100) ? 0 : 1;
    return n;
  };
  const std::uint64_t a = refusals();
  EXPECT_EQ(a, refusals());
  EXPECT_GT(a, 200u);
  EXPECT_LT(a, 400u);
}

// --- harness-level degradation scenarios ------------------------------

Scenario mem_scenario(int receivers, std::uint64_t file_bytes,
                      std::uint64_t budget, std::uint64_t seed) {
  harness::Workload wl;
  wl.file_bytes = file_bytes;
  Scenario sc = harness::lan_scenario(receivers, 10e6, 256 << 10, wl, seed);
  sc.mem_budget = budget;
  sc.time_limit = sim::seconds(600);
  return sc;
}

TEST(MemPressure, BudgetedRunIsDeterministicAndBudgetSafe) {
  Scenario sc = mem_scenario(2, 128 * 1024, 96 * 1024, 11);
  sc.topo.groups[0].loss_rate = 0.02;
  const RunResult a = harness::run_transfer(sc);
  const RunResult b = harness::run_transfer(sc);
  EXPECT_TRUE(a.completed);
  EXPECT_EQ(a.rng_digest, b.rng_digest);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.mem_peak_bytes, b.mem_peak_bytes);
  EXPECT_EQ(a.mem_alloc_fails, b.mem_alloc_fails);
  // The by-construction bound the chaos oracle also asserts.
  EXPECT_LE(a.mem_peak_bytes, sc.mem_budget);
  EXPECT_GT(a.mem_peak_bytes, 0u);
}

TEST(MemPressure, AllocFailDuringUrgJoinResync) {
  // A receiver late-joins the live stream (URG resync path) while a
  // GFP_ATOMIC-style alloc-failure window is refusing a fifth of all
  // charges and rx admissions. Refusals degrade to drops and re-NAKs;
  // the joiner must still anchor and complete the tail.
  Scenario sc = mem_scenario(2, 256 * 1024, 0, 21);
  sc.churn.push_back(
      harness::ChurnEvent{sim::milliseconds(150), 1, /*join=*/true});
  sc.faults.alloc_fail(0, sim::milliseconds(120), 0.2);
  sc.faults.alloc_fail_stop(0, sim::milliseconds(450));
  const RunResult r = harness::run_transfer(sc);
  EXPECT_TRUE(r.completed);
  EXPECT_FALSE(r.any_stream_error);
  EXPECT_GT(r.mem_alloc_fails, 0u);
}

TEST(MemPressure, RepairerDeathFailoverWithEvictingCache) {
  // Hierarchical repair under a memory budget far below the stream
  // size: the repairer serves children from an LRU the ledger keeps
  // evicting, then dies mid-stream. Children fail over to the sender
  // and the subtree still delivers.
  Scenario sc = mem_scenario(3, 256 * 1024, 256 * 1024, 31);
  sc.topo.groups[0].loss_rate = 0.02;
  sc.hierarchy.enabled = true;
  sc.faults.crash(0, sim::milliseconds(250));
  sc.faults.restart(0, sim::milliseconds(500));
  const RunResult r = harness::run_transfer(sc);
  EXPECT_TRUE(r.completed);
  EXPECT_FALSE(r.any_stream_error);
  // The ledger actually evicted repair-cache entries (the packet-count
  // cap alone is silent), and children failed over.
  EXPECT_GT(r.receivers_total.repair_cache_evictions, 0u);
  EXPECT_GT(r.receivers_total.repair_failovers, 0u);
}

TEST(MemPressure, FecGroupsFallBackToSelectiveRepeatUnderOom) {
  // FEC enabled under a starved budget: cache charges for data shards
  // and parity rows get refused, decode becomes impossible for some
  // groups, and recovery must fall back to plain selective repeat —
  // degraded, never wrong.
  Scenario sc = mem_scenario(2, 256 * 1024, 24 * 1024, 41);
  sc.topo.groups[0].loss_rate = 0.03;
  sc.proto.fec_group = 8;
  sc.proto.fec_parity_min = 1;
  sc.proto.fec_parity_max = 1;
  const RunResult r = harness::run_transfer(sc);
  EXPECT_TRUE(r.completed);
  EXPECT_FALSE(r.any_stream_error);
  // The degradation signal: under this budget the sender's own ledger
  // refuses parity charges, so FEC visibly gave way (skipped rows at
  // the sender, or starved groups at receivers that still got some).
  EXPECT_GT(r.sender.fec_parity_skipped +
                r.receivers_total.fec_decode_failures +
                r.receivers_total.fec_evictions,
            0u);
  EXPECT_GT(r.mem_alloc_fails, 0u);
  EXPECT_LE(r.mem_peak_bytes, sc.mem_budget);
}

TEST(MemPressure, SqueezeWindowEvictsAndRecovers) {
  // A shrinker squeeze drops the effective budget 90% mid-stream: the
  // receivers' caches must drain to the squeezed watermark (evictions,
  // re-NAKs) and refill after the window closes, completing the run.
  Scenario sc = mem_scenario(2, 256 * 1024, 128 * 1024, 51);
  sc.topo.groups[0].loss_rate = 0.03;
  sc.proto.fec_group = 8;
  sc.proto.fec_parity_min = 1;
  sc.proto.fec_parity_max = 1;
  sc.faults.mem_pressure(0, sim::milliseconds(150), 0.9);
  sc.faults.mem_pressure_stop(0, sim::milliseconds(600));
  const RunResult r = harness::run_transfer(sc);
  EXPECT_TRUE(r.completed);
  EXPECT_FALSE(r.any_stream_error);
  EXPECT_GT(r.mem_alloc_fails + r.mem_cache_evictions, 0u);
  EXPECT_LE(r.mem_peak_bytes, sc.mem_budget);
}

TEST(MemPressure, TraceBudgetInvariantHolds) {
  // Invariant 5: every kAllocFail / kCacheEvict record carries the
  // emitting host's ledger live bytes, and none may exceed the budget.
  Scenario sc = mem_scenario(2, 128 * 1024, 48 * 1024, 61);
  sc.topo.groups[0].loss_rate = 0.02;
  sc.trace.enabled = true;
  const RunResult r = harness::run_transfer(sc);
  ASSERT_TRUE(r.completed);
  ASSERT_EQ(r.trace_dropped, 0u);
  trace::VerifyOptions opt;
  opt.mem_budget = sc.mem_budget;
  const trace::VerifyResult v = trace::verify(r.trace_records, opt);
  EXPECT_TRUE(v.ok) << (v.violations.empty() ? std::string()
                                             : v.violations.front());
  // The pass actually checked something: pressure emitted records.
  EXPECT_GT(v.mem_checked, 0u);
}

// --- chaos integration -------------------------------------------------

TEST(MemPressure, MemSpecSerializeParseRoundTrip) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const harness::ChaosSpec s = harness::generate_mem_spec(seed);
    EXPECT_GT(s.mem_budget, 0u) << "seed=" << seed;
    const std::string text = harness::serialize_spec(s);
    const auto back = harness::parse_spec(text);
    ASSERT_TRUE(back.has_value()) << "seed=" << seed;
    EXPECT_EQ(back->mem_budget, s.mem_budget) << "seed=" << seed;
    EXPECT_EQ(harness::serialize_spec(*back), text) << "seed=" << seed;
  }
}

TEST(MemPressure, PinnedMemChaosSeedBlockPassesOracle) {
  // A slice of the CI mem-chaos block (chaos --mem): every seed runs
  // with a per-host budget plus squeeze / alloc-fail windows, and the
  // oracle adds the budget invariant to its usual reliability checks.
  const auto outcomes = harness::sweep(1, 60, 0, /*mem=*/true);
  for (const auto& o : outcomes) {
    EXPECT_TRUE(o.verdict.ok)
        << "seed " << o.seed << ": " << o.verdict.failure;
  }
}

}  // namespace
}  // namespace hrmc
