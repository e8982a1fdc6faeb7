#include "trace/verify.hpp"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "kern/jiffies.hpp"
#include "kern/seq.hpp"

namespace hrmc::trace {

using kern::Seq;
using kern::seq_after;
using kern::seq_after_eq;
using kern::seq_before;
using kern::seq_before_eq;
using kern::seq_diff;
using kern::seq_max;
using kern::seq_min;

const char* kind_name(EventKind k) {
  switch (k) {
    case EventKind::kNone: return "none";
    case EventKind::kSend: return "send";
    case EventKind::kRetransmit: return "retransmit";
    case EventKind::kRelease: return "release";
    case EventKind::kProbe: return "probe";
    case EventKind::kRateCut: return "rate_cut";
    case EventKind::kUrgentStop: return "urgent_stop";
    case EventKind::kStallOpen: return "stall_open";
    case EventKind::kStallClose: return "stall_close";
    case EventKind::kEvict: return "evict";
    case EventKind::kDeadRelease: return "dead_release";
    case EventKind::kNakErr: return "nak_err";
    case EventKind::kJoined: return "joined";
    case EventKind::kResyncJoin: return "resync_join";
    case EventKind::kResync: return "resync";
    case EventKind::kRejoin: return "rejoin";
    case EventKind::kLeave: return "leave";
    case EventKind::kAggUpdate: return "agg_update";
    case EventKind::kNakPeerSuppress: return "nak_peer_suppress";
    case EventKind::kRepairTx: return "repair_tx";
    case EventKind::kNakForward: return "nak_forward";
    case EventKind::kFecRepair: return "fec_repair";
    case EventKind::kFecDecodeFail: return "fec_decode_fail";
    case EventKind::kNakEmit: return "nak";
    case EventKind::kNakSuppress: return "nak_suppress";
    case EventKind::kUpdate: return "update";
    case EventKind::kRateRequest: return "rate_request";
    case EventKind::kUpdatePeriod: return "update_period";
    case EventKind::kOooInsert: return "ooo_insert";
    case EventKind::kRegion: return "region";
    case EventKind::kEnqueue: return "enqueue";
    case EventKind::kDrop: return "drop";
    case EventKind::kDeviceFull: return "device_full";
    case EventKind::kCorrupt: return "corrupt";
    case EventKind::kAllocFail: return "alloc_fail";
    case EventKind::kCacheEvict: return "cache_evict";
    case EventKind::kDown: return "down";
    case EventKind::kUp: return "up";
  }
  return "?";
}

namespace {

/// Stop collecting violation strings past this many (the counters keep
/// counting).
constexpr std::size_t kMaxViolations = 32;

/// Per-receiver view for the release-safety invariant.
struct RcvState {
  bool armed = false;   ///< kJoined seen: participates in the gate
  bool exempt = false;  ///< crashed / evicted / dead-released
  /// Joined a local repairer (kFlagAggregated): release safety for this
  /// host is carried by its repairer's AGG_UPDATE subtree minimum.
  bool aggregated = false;
  Seq high = 0;         ///< highest rcv_nxt this receiver ever reported
};

/// An unanswered NAK range.
struct PendingNak {
  std::uint16_t host = 0;
  Seq from = 0;
  Seq to = 0;
  sim::SimTime first_emit = 0;
};

class Verifier {
 public:
  Verifier(const VerifyOptions& opt, VerifyResult& res)
      : opt_(opt), res_(res) {}

  void run(const std::vector<TraceRecord>& records) {
    for (const TraceRecord& r : records) step(r);
    if (!records.empty()) finish(records.back().t);
  }

 private:
  void violate(const TraceRecord& r, const std::string& what) {
    res_.ok = false;
    ++res_.violation_count;
    if (res_.violations.size() < kMaxViolations) {
      res_.violations.push_back(
          "t=" + std::to_string(r.t) + " host=" + std::to_string(r.host) +
          " " + kind_name(r.kind) + ": " + what);
    }
  }

  // --- receiver bookkeeping shared by invariants 1, 2 and 4 ---

  RcvState& rcv(std::uint16_t host) { return receivers_[host]; }

  /// `monotone`: the report is the receiver's own position, which
  /// invariant 4 holds to its high-water mark.
  void note_coverage(const TraceRecord& r, Seq reported,
                     bool monotone = true) {
    RcvState& s = rcv(r.host);
    if (!s.armed) return;  // pre-JOIN feedback cannot arm the gate
    if (monotone) check_progress(r, "reported position", reported, s.high);
    if (seq_after(reported, s.high)) s.high = reported;
    clear_naks_below(r.host, reported);
  }

  /// Invariant 4: a position must not fall behind its high-water mark.
  void check_progress(const TraceRecord& r, const char* what, Seq now,
                      Seq high) {
    if (seq_before(now, high)) {
      violate(r, std::string(what) + " " + std::to_string(now) +
                     " regressed behind " + std::to_string(high));
    }
  }

  // --- invariant 2 helpers ---

  void add_pending_nak(const TraceRecord& r) {
    Seq from = r.seq_begin;
    Seq to = r.seq_end;
    sim::SimTime first = r.t;
    // Merge with overlapping/adjacent pendings from the same receiver
    // (NAK re-sends keep the original deadline).
    for (std::size_t i = pending_.size(); i-- > 0;) {
      const PendingNak& p = pending_[i];
      if (p.host != r.host) continue;
      if (seq_before(to, p.from) || seq_before(p.to, from)) continue;
      from = seq_min(from, p.from);
      to = seq_max(to, p.to);
      first = std::min(first, p.first_emit);
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
    }
    pending_.push_back(PendingNak{r.host, from, to, first});
    ++res_.naks_checked;
  }

  /// The sender answered [from, to) (retransmission is multicast, and a
  /// NAK_ERR means the data is gone for everyone): every overlapping
  /// pending range, for every receiver, is checked against the bound
  /// and trimmed.
  void answer_naks(const TraceRecord& r, Seq from, Seq to) {
    std::vector<PendingNak> keep;
    keep.reserve(pending_.size());
    for (PendingNak& p : pending_) {
      if (seq_before_eq(to, p.from) || seq_before_eq(p.to, from)) {
        keep.push_back(p);
        continue;
      }
      if (r.t - p.first_emit > opt_.nak_answer_bound) {
        violate(r, "NAK from host " + std::to_string(p.host) + " for [" +
                       std::to_string(p.from) + "," + std::to_string(p.to) +
                       ") answered " +
                       std::to_string(r.t - p.first_emit) +
                       " ns after first emission (bound " +
                       std::to_string(opt_.nak_answer_bound) + ")");
      }
      // Unanswered remnants on either side keep the original deadline.
      if (seq_before(p.from, from)) {
        keep.push_back(PendingNak{p.host, p.from, from, p.first_emit});
      }
      if (seq_before(to, p.to)) {
        keep.push_back(PendingNak{p.host, to, p.to, p.first_emit});
      }
    }
    pending_ = std::move(keep);
  }

  /// Receiver `host` holds everything below `reported`.
  void clear_naks_below(std::uint16_t host, Seq reported) {
    for (std::size_t i = pending_.size(); i-- > 0;) {
      PendingNak& p = pending_[i];
      if (p.host != host) continue;
      if (seq_before_eq(reported, p.from)) continue;
      if (seq_before(p.from, reported)) p.from = seq_min(reported, p.to);
      if (!seq_before(p.from, p.to)) {
        pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }
  }

  /// Receiver buffered [from, to): any pending hole it covers is moot.
  void fill_naks(std::uint16_t host, Seq from, Seq to) {
    std::vector<PendingNak> extra;
    for (std::size_t i = pending_.size(); i-- > 0;) {
      PendingNak& p = pending_[i];
      if (p.host != host) continue;
      if (seq_before_eq(to, p.from) || seq_before_eq(p.to, from)) continue;
      PendingNak left{p.host, p.from, seq_min(from, p.to), p.first_emit};
      PendingNak right{p.host, seq_max(to, p.from), p.to, p.first_emit};
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
      if (seq_before(left.from, left.to)) extra.push_back(left);
      if (seq_before(right.from, right.to)) extra.push_back(right);
    }
    pending_.insert(pending_.end(), extra.begin(), extra.end());
  }

  void drop_naks(std::uint16_t host) {
    pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                  [host](const PendingNak& p) {
                                    return p.host == host;
                                  }),
                   pending_.end());
  }

  // --- invariant 3 helpers ---

  static double burst_cap(double rate) {
    // One pump's worth at full budget (dt capped at a jiffy) on top of
    // a full inter-pump accrual, plus the sub-MSS carry and per-packet
    // rounding. Anything past this is genuinely above the advertisement.
    return 2.0 * rate * sim::to_seconds(kern::kJiffy) + 8.0 * 1500.0;
  }

  void account_send(const TraceRecord& r) {
    ++res_.sends_checked;
    const double adv = static_cast<double>(r.value);
    const double bytes =
        static_cast<double>(seq_diff(r.seq_begin, r.seq_end));
    if (!bucket_primed_) {
      bucket_primed_ = true;
      tokens_ = burst_cap(adv);
    } else {
      const double dt = sim::to_seconds(r.t - last_send_t_);
      const double accrue_rate = std::max(last_adv_, adv);
      tokens_ = std::min(tokens_ + accrue_rate * dt,
                         burst_cap(std::max(last_adv_, adv)));
    }
    last_send_t_ = r.t;
    last_adv_ = adv;
    tokens_ -= bytes;
    if (tokens_ < -1e-6) {
      violate(r, "sent " + std::to_string(static_cast<std::int64_t>(bytes)) +
                     " bytes with only " +
                     std::to_string(static_cast<std::int64_t>(tokens_ + bytes)) +
                     " byte-tokens at advertised rate " +
                     std::to_string(static_cast<std::uint64_t>(adv)));
      tokens_ = 0;  // report once per excursion, not per packet
    }
    if (r.kind == EventKind::kSend && r.t < stop_until_) {
      violate(r, "new data sent at t=" + std::to_string(r.t) +
                     " during urgent stop (until " +
                     std::to_string(stop_until_) + ")");
    }
  }

  // --- event dispatch ---

  void step(const TraceRecord& r) {
    switch (r.kind) {
      case EventKind::kJoined: {
        RcvState& s = rcv(r.host);
        s.armed = true;
        s.exempt = false;
        // Aggregated child (joined a local repairer): its position
        // reaches the sender only through the repairer's AGG_UPDATE
        // subtree minimum, so release safety is judged against that
        // aggregate, not this host's own reports. A later flat re-JOIN
        // (failover to the sender) re-arms it as a direct member.
        s.aggregated = (r.flags & kFlagAggregated) != 0;
        s.high = r.seq_begin;
        addr_to_host_[r.value] = r.host;
        break;
      }
      case EventKind::kResync: {
        RcvState& s = rcv(r.host);
        s.exempt = false;
        s.high = r.seq_begin;
        if (opt_.check_nak) drop_naks(r.host);
        break;
      }
      case EventKind::kResyncJoin:
        // Between restart and re-anchor the receiver's reports are
        // stale; the kJoined/kResync that follows re-arms it.
        rcv(r.host).exempt = true;
        break;
      case EventKind::kLeave:
        // Clean departure (churn): the receiver stops reporting and
        // stops re-sending NAKs, so it can no longer gate releases or
        // hold the sender to the NAK-answer bound.
        rcv(r.host).exempt = true;
        if (opt_.check_nak) drop_naks(r.host);
        break;
      case EventKind::kUpdate:
      case EventKind::kRateRequest:
      case EventKind::kNakSuppress:
      case EventKind::kNakPeerSuppress:
        note_coverage(r, r.seq_begin);
        break;
      case EventKind::kAggUpdate:
        // Aggregated subtree UPDATE: seq_begin is the *minimum* over the
        // represented leaves, so raising the emitter's high-water with it
        // is conservative — release safety is judged against subtree
        // minima, never against a leaf the aggregate outran. A minimum
        // below the emitter's own position is a laggard child, not
        // drift, so invariant 4 does not apply.
        note_coverage(r, r.seq_begin, /*monotone=*/false);
        break;
      case EventKind::kNakEmit:
      case EventKind::kNakForward:
        // A forwarded child NAK binds the sender exactly like a leaf NAK:
        // the repairer could not serve it locally, so only the sender's
        // (multicast) retransmission can answer it.
        note_coverage(r, static_cast<Seq>(r.value));
        if (opt_.check_nak) add_pending_nak(r);
        break;
      case EventKind::kOooInsert:
        if (opt_.check_nak) fill_naks(r.host, r.seq_begin, r.seq_end);
        break;
      case EventKind::kFecRepair:
        // A parity reconstruction buffers the missing packet exactly
        // like an arriving retransmission would: any pending NAK it
        // covers is moot, and release safety sees the position advance
        // through the receiver's ordinary coverage reports.
        if (opt_.check_nak) fill_naks(r.host, r.seq_begin, r.seq_end);
        break;
      case EventKind::kFecDecodeFail:
        // Informational: the group falls back to the NAK path, whose
        // own kNakEmit/kRetransmit records carry the obligations.
        break;
      case EventKind::kDown:
        if (is_receiver_host(r.host)) {
          rcv(r.host).exempt = true;
          if (opt_.check_nak) drop_naks(r.host);
        }
        break;
      case EventKind::kUp:
        // A link flap loses no receiver state, so the pre-down high
        // water is still valid — re-arm. A crash-restart re-exempts
        // itself right after: its kResyncJoin follows this kUp, and only
        // the kResync re-anchor re-arms it for real.
        if (is_receiver_host(r.host)) rcv(r.host).exempt = false;
        break;
      case EventKind::kEvict:
      case EventKind::kDeadRelease: {
        auto it = addr_to_host_.find(r.value);
        if (it != addr_to_host_.end()) rcv(it->second).exempt = true;
        break;
      }
      case EventKind::kRetransmit:
        if (opt_.check_nak) answer_naks(r, r.seq_begin, r.seq_end);
        if (opt_.check_rate) account_send(r);
        break;
      case EventKind::kRepairTx:
        // A local repair answers the child's pending NAK but spends no
        // sender-rate tokens: the repairer's unicast re-send never
        // crosses the sender's paced uplink.
        if (opt_.check_nak) answer_naks(r, r.seq_begin, r.seq_end);
        break;
      case EventKind::kNakErr:
        if (opt_.check_nak) answer_naks(r, r.seq_begin, r.seq_end);
        break;
      case EventKind::kSend:
        if (opt_.check_rate) account_send(r);
        break;
      case EventKind::kAllocFail:
      case EventKind::kCacheEvict:
        // Budget safety (invariant 5): the record's value field is the
        // emitting host's ledger live bytes at/after the event.
        if (opt_.check_mem && opt_.mem_budget > 0) {
          ++res_.mem_checked;
          if (r.value > opt_.mem_budget) {
            violate(r, "ledger live " + std::to_string(r.value) +
                           " bytes exceeds the per-host budget " +
                           std::to_string(opt_.mem_budget) +
                           " (component " + std::to_string(r.aux) + ")");
          }
        }
        break;
      case EventKind::kUrgentStop:
        stop_until_ =
            std::max(stop_until_, static_cast<sim::SimTime>(r.value));
        break;
      case EventKind::kRelease:
        // Invariant 4: the sender never re-anchors, so its release head
        // is monotone across every restart, flap and churn event.
        if (!release_high_ || seq_after(r.seq_end, *release_high_)) {
          release_high_ = r.seq_end;
        }
        check_progress(r, "release head", r.seq_end, *release_high_);
        if (opt_.check_release) {
          ++res_.releases_checked;
          for (const auto& [host, s] : receivers_) {
            if (!s.armed || s.exempt || s.aggregated) continue;
            if (seq_before(s.high, r.seq_end)) {
              violate(r, "released through " + std::to_string(r.seq_end) +
                             " but host " + std::to_string(host) +
                             " only reported " + std::to_string(s.high));
            }
          }
        }
        break;
      default:
        break;
    }
  }

  void finish(sim::SimTime end) {
    if (!opt_.check_nak) return;
    for (const PendingNak& p : pending_) {
      if (end - p.first_emit > opt_.nak_answer_bound) {
        res_.ok = false;
        ++res_.violation_count;
        if (res_.violations.size() < kMaxViolations) {
          res_.violations.push_back(
              "trace end: NAK from host " + std::to_string(p.host) +
              " for [" + std::to_string(p.from) + "," +
              std::to_string(p.to) + ") first emitted at t=" +
              std::to_string(p.first_emit) + " never answered");
        }
      }
    }
  }

  const VerifyOptions& opt_;
  VerifyResult& res_;

  std::unordered_map<std::uint16_t, RcvState> receivers_;
  std::unordered_map<std::uint64_t, std::uint16_t> addr_to_host_;
  std::vector<PendingNak> pending_;

  std::optional<Seq> release_high_;  ///< invariant 4, none until a release

  bool bucket_primed_ = false;
  double tokens_ = 0;
  double last_adv_ = 0;
  sim::SimTime last_send_t_ = 0;
  sim::SimTime stop_until_ = 0;
};

}  // namespace

VerifyResult verify(const std::vector<TraceRecord>& records,
                    const VerifyOptions& opt) {
  VerifyResult res;
  Verifier v(opt, res);
  v.run(records);
  return res;
}

}  // namespace hrmc::trace
