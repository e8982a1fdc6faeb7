// Trace-based invariant checker: replays a run's trace and asserts the
// protocol promises the paper states, instead of trusting end-of-run
// counters. Five invariants, numbered as in tools/check_trace.py:
//
//  1. Release safety (§3, "Probe Messages"): the sender never releases
//     a byte before every armed, live member reported covering it. The
//     checker tracks each receiver's reported high-water (from its own
//     kJoined/kUpdate/kNakEmit/kRateRequest emissions — a superset of
//     what reached the sender, and every report precedes the release in
//     trace-time, so sender knowledge ⊆ checker knowledge and the check
//     is sound). Crash (kDown until kResync), eviction (kEvict until a
//     new kJoined) and kRmcFallback dead-member releases exempt a
//     receiver from the gate, matching the protocol's own semantics.
//
//  2. NAKs answered within a bound: every kNakEmit range is cleared by
//     an overlapping sender kRetransmit/kNakErr (or mooted by the
//     receiver's own coverage advancing past it, or the receiver going
//     down) within `nak_answer_bound` of its first emission.
//
//  3. Rate conformance: a token bucket fed at the advertised rate (the
//     value field of kSend/kRetransmit) never goes negative beyond the
//     pacing slack (one jiffy's burst plus carry), and no *new* data is
//     sent while an urgent stop (kUrgentStop's stop-until) is in force
//     — the §2 rule 3 contract, and the regression net for the
//     zero-srtt urgent-stop bug.
//
//  4. Monotone progress: a receiver's reported position never moves
//     backwards between re-anchors (kJoined, kResync), and the sender's
//     release head never moves backwards at all. kAggUpdate carries a
//     subtree minimum, which may sit below the repairer's own position,
//     so it only raises the high-water mark and is exempt. Always on.
//
//  5. Budget safety (DESIGN.md §16), when VerifyOptions::mem_budget is
//     set; see check_mem below.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "trace/trace.hpp"

namespace hrmc::trace {

struct VerifyOptions {
  /// Check invariant 1. Turn off for Mode::kRmc (release is
  /// unconditional by design) and for kRmcFallback scenarios where the
  /// trace may be truncated (a dropped kDeadRelease would false-fail).
  bool check_release = true;
  bool check_nak = true;
  bool check_rate = true;
  /// Invariant 5, budget safety (DESIGN.md §16): every kAllocFail /
  /// kCacheEvict record carries the emitting host's ledger live bytes
  /// in its value field; none may exceed mem_budget. The accountant
  /// enforces this by construction (try_charge refuses rather than
  /// overshoot), so a violation means a consumer bypassed try_charge
  /// or forgot an uncharge. mem_budget == 0 skips the check.
  bool check_mem = true;
  std::uint64_t mem_budget = 0;
  /// Invariant 2's answer deadline, first NAK emission to sender
  /// response. Generous by default: it is a liveness floor, not a
  /// latency SLO.
  sim::SimTime nak_answer_bound = sim::seconds(2);
};

struct VerifyResult {
  bool ok = true;
  std::uint64_t violation_count = 0;
  std::vector<std::string> violations;  ///< the first 32, rendered

  // Work done, so a "pass" on an empty trace is distinguishable from a
  // pass that actually checked something.
  std::uint64_t releases_checked = 0;
  std::uint64_t naks_checked = 0;
  std::uint64_t sends_checked = 0;
  std::uint64_t mem_checked = 0;  ///< kAllocFail/kCacheEvict records seen
};

/// Replays `records` (must be in time order, as TraceRing::records()
/// returns them) and checks the invariants enabled in `opt`.
VerifyResult verify(const std::vector<TraceRecord>& records,
                    const VerifyOptions& opt = {});

}  // namespace hrmc::trace
