// Memory accountant: per-host byte budgets with deterministic
// allocation-failure injection.
//
// The paper's protocol engine runs inside the Linux kernel, where every
// alloc_skb in softirq context can fail and buffer memory is a hard
// budget the sender's flow control exists to protect. This accountant
// gives the simulation the same adversary: each simulated host owns a
// byte ledger split by component (skbuff blocks, send window, receiver
// reassembly, repairer payload cache, FEC data/parity caches, scheduler
// slab), and every *fallible* allocation in the protocol goes through
// try_charge(), which refuses when the ledger would exceed the
// effective budget — or, while an alloc-failure fault window is armed,
// probabilistically (GFP_ATOMIC-style) from a dedicated RNG substream.
//
// Determinism contract (same as the fault layer): an accountant with
// budget 0 and fail probability 0 draws no randomness and refuses
// nothing, and a run without an accountant installed is bit-identical
// to one that never heard of this header. The Bernoulli stream is drawn
// ONLY while a fault window holds fail_prob > 0, so arming a
// mem-pressure (budget squeeze) window never perturbs any other draw.
//
// Invariant (enforced by construction, checked by trace::verify and the
// chaos oracle): charges only ever enter a ledger through try_charge(),
// which refuses rather than overshoot — live bytes per host NEVER
// exceed the full budget. A squeeze window lowers the *effective*
// budget below bytes already held; consumers observe the overage via
// overage() and evict, but the ledger itself stays within the full
// budget throughout.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "sim/random.hpp"

namespace hrmc::kern {

/// What a charge is for. Stable numbering: trace kAllocFail/kCacheEvict
/// records carry the component in their aux field.
enum class MemComponent : std::uint8_t {
  kSkb = 0,         ///< skbuff data blocks (wire packets in flight)
  kSendWindow = 1,  ///< sender write-queue payload blocks
  kReassembly = 2,  ///< receiver out-of-order reassembly segments
  kRepairCache = 3, ///< repairer payload cache (hierarchical repair)
  kFecData = 4,     ///< receiver FEC data-shard cache
  kFecParity = 5,   ///< receiver FEC parity-row cache
};
inline constexpr std::size_t kMemComponentCount = 6;

/// Rx frames at or below this wire size bypass the NIC admission probe:
/// they model allocations from the driver's GFP_ATOMIC reserve pool,
/// which exists precisely so the feedback that *frees* memory (ACKs,
/// NAKs, UPDATEs — all far below this size) survives memory pressure.
/// Without the reserve, a sender whose window charge has pinned its
/// ledger at the budget would refuse every incoming UPDATE and deadlock:
/// no UPDATE -> no release -> no uncharge -> no UPDATE. Full-size data
/// frames never fit the reserve and stay fallible.
inline constexpr std::size_t kMemRxReserveBytes = 256;

/// Eviction passes drain a ledger to this many bytes *below* the
/// effective budget, not flush to it. A ledger sitting exactly at the
/// line makes the NIC admission probe refuse every full-size frame —
/// and since frame arrival is one of the things that triggers the next
/// eviction pass, a pinned ledger can wedge the run with the squeeze
/// long gone. A couple of MTUs of slack keeps the rx path admitting
/// while the caches refill.
inline constexpr std::uint64_t kMemEvictHeadroomBytes = 4096;

/// One domain's memory policy: the per-host budget, the squeeze and
/// alloc-failure fault windows, the Bernoulli stream, the refusal
/// counters and the peak over every ledger that points at it. The bytes
/// live in each host's own MemLedger.
class MemAccountant {
 public:
  /// `budget_per_host` of 0 means unlimited (budget refusals off; only
  /// the probabilistic fail path can then refuse). `rng_seed` should be
  /// a named substream of the scenario seed — the stream is consumed
  /// only while alloc_fail_prob > 0.
  MemAccountant(std::uint64_t budget_per_host, std::uint64_t rng_seed)
      : budget_(budget_per_host), rng_(rng_seed) {}

  MemAccountant(const MemAccountant&) = delete;
  MemAccountant& operator=(const MemAccountant&) = delete;

  // --- fault-window controls (net::FaultInjector) ---

  /// Budget-squeeze window: the effective budget becomes
  /// budget * (1 - fraction). No-op while budget is unlimited.
  void set_squeeze(double fraction) {
    squeeze_ = std::clamp(fraction, 0.0, 0.95);
  }

  /// GFP_ATOMIC-style probabilistic failure: while p > 0 every fallible
  /// charge/admission first draws Bernoulli(p) and refuses on success.
  void set_alloc_fail_prob(double p) {
    fail_prob_ = std::clamp(p, 0.0, 1.0);
  }

  [[nodiscard]] std::uint64_t budget() const { return budget_; }
  [[nodiscard]] std::uint64_t effective_budget() const {
    if (budget_ == 0) return 0;  // unlimited
    const auto eff = static_cast<std::uint64_t>(
        static_cast<double>(budget_) * (1.0 - squeeze_));
    return std::max<std::uint64_t>(eff, 1);
  }

  /// Highest single-host ledger ever observed (the invariant bound:
  /// never exceeds budget() when a budget is set).
  [[nodiscard]] std::uint64_t peak_any_host() const { return global_peak_; }

  // --- counters ---

  struct Counters {
    std::uint64_t alloc_fails = 0;    ///< total refusals (either cause)
    std::uint64_t budget_denials = 0; ///< refused: would exceed budget
    std::uint64_t prob_denials = 0;   ///< refused: Bernoulli fired
    std::uint64_t charges = 0;        ///< successful try_charge calls
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

  /// Folded end-state of the failure-injection stream.
  [[nodiscard]] std::uint64_t rng_digest() const { return rng_.digest(); }

 private:
  friend class MemLedger;

  /// Whether a ledger holding `live` bytes may take `bytes` more.
  bool admit(std::uint64_t live, std::uint64_t bytes) {
    if (fail_prob_ > 0.0 && rng_.chance(fail_prob_)) {
      ++counters_.prob_denials;
      ++counters_.alloc_fails;
      return false;
    }
    const std::uint64_t eff = effective_budget();
    if (eff > 0 && live + bytes > eff) {
      ++counters_.budget_denials;
      ++counters_.alloc_fails;
      return false;
    }
    return true;
  }

  /// Counts a charge that left a ledger holding `live` bytes.
  void charged(std::uint64_t live) {
    global_peak_ = std::max(global_peak_, live);
    ++counters_.charges;
  }

  std::uint64_t budget_;
  double squeeze_ = 0.0;
  double fail_prob_ = 0.0;
  std::uint64_t global_peak_ = 0;
  Counters counters_;
  sim::Rng rng_;
};

/// One host's byte ledger, split by component. Each host under memory
/// accounting holds its own (net::Host::set_mem_accountant creates it),
/// and every charge asks its domain's MemAccountant for the policy.
class MemLedger {
 public:
  explicit MemLedger(MemAccountant& acct) : acct_(&acct) {}

  MemLedger(const MemLedger&) = delete;
  MemLedger& operator=(const MemLedger&) = delete;

  /// Charges `bytes`, or refuses (returning false, charging nothing)
  /// when the Bernoulli failure fires or the ledger would exceed the
  /// effective budget.
  bool try_charge(MemComponent c, std::uint64_t bytes) {
    if (!admit(bytes)) return false;
    live_ += bytes;
    by_component_[static_cast<std::size_t>(c)] += bytes;
    acct_->charged(live_);
    return true;
  }

  /// Admission probe without a charge — the NIC rx path models "could
  /// the kernel alloc_skb this frame" and drops on refusal; the skb
  /// memory itself is already accounted at its producer.
  bool admit(std::uint64_t bytes) { return acct_->admit(live_, bytes); }

  void uncharge(MemComponent c, std::uint64_t bytes) {
    std::uint64_t& part = by_component_[static_cast<std::size_t>(c)];
    live_ -= std::min(live_, bytes);
    part -= std::min(part, bytes);
  }

  // --- pressure probes (consumer eviction policies) ---

  /// Bytes held beyond the effective budget (a squeeze window can push
  /// a ledger past the *effective* line without any new charge); 0 when
  /// under, or when unlimited. `headroom` lowers the drain target below
  /// the effective line: evicting flush *to* the budget leaves the NIC
  /// admission probe refusing every full-size frame, so shrinker passes
  /// ask for overage(kMemEvictHeadroomBytes) instead.
  [[nodiscard]] std::uint64_t overage(std::uint64_t headroom = 0) const {
    if (acct_->budget() == 0) return 0;
    const std::uint64_t eff = acct_->effective_budget();
    const std::uint64_t target = eff > headroom ? eff - headroom : 1;
    return live_ > target ? live_ - target : 0;
  }

  [[nodiscard]] std::uint64_t live() const { return live_; }
  [[nodiscard]] std::uint64_t component(MemComponent c) const {
    return by_component_[static_cast<std::size_t>(c)];
  }

 private:
  MemAccountant* acct_;
  std::uint64_t live_ = 0;
  std::uint64_t by_component_[kMemComponentCount] = {};
};

}  // namespace hrmc::kern
