// Protocol event tracer: the observability layer under every
// time-resolved figure (§5 of the paper is *all* time series) and under
// the trace-based invariant checker (trace/verify.hpp).
//
// Design constraints, in order:
//  - Emission must be cheap enough to leave on during benches: one
//    32-byte POD store into a preallocated ring, no allocation, no
//    formatting, no clock syscalls (time comes from the simulator).
//  - There is one build: trace points are always compiled in, so
//    trace::verify and the chaos oracle can check any run. A sink with
//    no ring costs one null test per call site (DESIGN.md §10 gives
//    the measured cost).
//  - Records must be self-describing enough to replay: every record
//    carries (time, host, kind, seq range, value, aux), and the host-id
//    convention below is shared by the harness, the verifier, and
//    tools/check_trace.py.
//
// The ring overwrites its *oldest* records when full (like the kernel's
// ftrace ring buffer), counting the overwritten records in dropped() so
// a truncated trace is detectable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "kern/seq.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace hrmc::trace {

/// What happened. Grouped by emitting layer; values are stable wire
/// numbers (the JSONL dump and check_trace.py key off the names).
enum class EventKind : std::uint8_t {
  kNone = 0,

  // Sender (proto::HrmcSender).
  kSend = 1,        ///< first transmission; [seq range), value = adv rate
  kRetransmit = 2,  ///< retransmission;     [seq range), value = adv rate
  kRelease = 3,     ///< head released;      [seq range), value = queued bytes
  kProbe = 4,       ///< probe round; seq = release gate, value = #lacking
  kRateCut = 5,     ///< multiplicative decrease; value = new, aux = old rate
  kUrgentStop = 6,  ///< urgent stop; value = stop-until (ns), aux = new rate
  kStallOpen = 7,   ///< release gate blocked past hold; seq = gate
  kStallClose = 8,  ///< gate unblocked (or shutdown); value = stall ns
  kEvict = 9,       ///< dead member dropped; value = member addr
  kDeadRelease = 10,  ///< kRmcFallback released over dead members
  kNakErr = 11,     ///< NAK_ERR sent; [seq range) unsatisfiable

  // Receiver (proto::HrmcReceiver).
  kJoined = 20,     ///< JOIN_RESPONSE accepted; seq = rcv_nxt, value = addr
  kResyncJoin = 21, ///< URG JOIN sent after crash-restart; value = addr
  kResync = 22,     ///< re-anchored at sender position; seq = new rcv_nxt
  kNakEmit = 23,    ///< NAK sent; [missing range), value = rcv_nxt
  kNakSuppress = 24,  ///< hole already pending, no NAK; seq = rcv_nxt
  kUpdate = 25,       ///< UPDATE sent; seq = rcv_nxt, value = occupancy
  kRateRequest = 26,  ///< CONTROL sent; seq = rcv_nxt, value = req rate
  kUpdatePeriod = 27, ///< period changed; value = new, aux = old (jiffies)
  kOooInsert = 28,    ///< out-of-order segment buffered; [seq range)
  kRegion = 29,       ///< flow-control region change; value = 0/1/2
  kRejoin = 30,       ///< stalled-data re-JOIN sent; seq = rcv_nxt
  kLeave = 31,        ///< clean close()/LEAVE; seq = rcv_nxt, value = addr

  // Hierarchical repair / SRM suppression (repairer role + children).
  kAggUpdate = 32,  ///< subtree UPDATE sent; seq = subtree min, value = count
  kNakPeerSuppress = 33,  ///< NAK deferred on overheard peer NAK; seq = rcv_nxt
  kRepairTx = 34,   ///< repairer answered a child NAK; [seq range) re-sent
  kNakForward = 35, ///< repairer forwarded a child NAK up; [missing range),
                    ///< value = repairer rcv_nxt

  // FEC extension (adaptive Reed–Solomon parity).
  kFecRepair = 36,  ///< packet rebuilt from parity; [seq range) of the
                    ///< reconstructed packet, value = erasures in group
  kFecDecodeFail = 37,  ///< group losses exceeded the parity budget (or a
                        ///< needed sibling was evicted); [group span),
                        ///< value = erasure count, aux = parities held

  // Network (net::Router / net::Nic).
  kEnqueue = 40,     ///< router egress enqueue; value = wire size
  kDrop = 41,        ///< packet dropped; value = wire size, aux = reason
  kDeviceFull = 42,  ///< tx ring / egress queue full; aux = queue len
  kCorrupt = 43,     ///< packet corrupted in flight; value = wire size

  // Memory pressure (kern::MemAccountant consumers). value = the
  // emitting host's ledger live bytes at/after the event — the budget
  // invariant (trace::verify --mem) checks value <= budget on both.
  kAllocFail = 44,   ///< fallible allocation refused; [seq range) if any,
                     ///< aux = kern::MemComponent
  kCacheEvict = 45,  ///< cache entry evicted under pressure; [seq range)
                     ///< evicted, aux = kern::MemComponent

  // Fault layer (net::FaultInjector).
  kDown = 50,  ///< target went down; aux = FaultKind
  kUp = 51,    ///< target came back; aux = FaultKind
};

/// Reason codes for kDrop / kDeviceFull (aux field).
enum class DropReason : std::uint32_t {
  kNone = 0,
  kLoss = 1,        ///< Bernoulli loss draw
  kBurstLoss = 2,   ///< Gilbert–Elliott burst
  kQueueFull = 3,   ///< egress queue / tx ring at capacity
  kTtl = 4,
  kDown = 5,        ///< router partitioned / host crashed
  kLinkDown = 6,
  kNoRoute = 7,     ///< no unicast route / empty multicast fan-out
  kOverrun = 8,     ///< NIC card FIFO overrun model
  kControlLoss = 9, ///< control-plane-only loss (chaos disturbance)
  kWireless = 10,   ///< 802.11-style correlated fade (WirelessLoss)
  kReconverging = 11,  ///< blackholed while the router recomputes routes
  kNoMem = 12,         ///< rx admission refused by the memory accountant
};

/// Stable name for a kind (JSONL dump / debugging). "?" when unknown.
const char* kind_name(EventKind k);

/// One trace record: 32 bytes, trivially copyable, written by value
/// into the ring. Field meaning depends on `kind` (see EventKind docs).
struct TraceRecord {
  sim::SimTime t = 0;          ///< simulation time of the event
  std::uint64_t value = 0;     ///< kind-specific payload
  kern::Seq seq_begin = 0;     ///< start of the affected range (or point)
  kern::Seq seq_end = 0;       ///< one past the end (== begin for points)
  std::uint32_t aux = 0;       ///< kind-specific secondary payload
  std::uint16_t host = 0;      ///< emitting entity (host-id convention)
  EventKind kind = EventKind::kNone;
  std::uint8_t flags = 0;      ///< bit 0: solicited / URG-marked
};
static_assert(sizeof(TraceRecord) == 32, "trace records are 32-byte POD");
static_assert(std::is_trivially_copyable_v<TraceRecord>);

constexpr std::uint8_t kFlagSolicited = 1;
/// On kJoined: the host joined a local repairer, not the sender — its
/// feedback is aggregated into the repairer's subtree AGG_UPDATEs, so
/// release safety is judged against the subtree minimum, never against
/// this host's own (repairer-directed) reports.
constexpr std::uint8_t kFlagAggregated = 2;

// Host-id convention (shared with harness::run_transfer, trace::verify
// and tools/check_trace.py): the sender is 0, receiver i is 1+i,
// routers and NICs live in their own ranges well above any receiver
// count a scenario uses.
inline constexpr std::uint16_t kSenderHost = 0;
constexpr std::uint16_t receiver_host(std::size_t i) {
  return static_cast<std::uint16_t>(1 + i);
}
inline constexpr std::uint16_t kBackboneHost = 900;
constexpr std::uint16_t router_host(std::size_t g) {
  return static_cast<std::uint16_t>(1000 + g);
}
constexpr std::uint16_t nic_host(std::size_t i) {  // 0 = sender's NIC
  return static_cast<std::uint16_t>(2000 + i);
}
constexpr bool is_receiver_host(std::uint16_t h) {
  return h >= 1 && h < kBackboneHost;
}

/// Fixed-capacity ring of TraceRecords. When full, push() overwrites
/// the oldest record and counts it in dropped(). Single-threaded (one
/// ring per simulation cell, like the skb pool and the scheduler).
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity = 1 << 16)
      : cap_(capacity == 0 ? 1 : capacity) {
    buf_.reserve(cap_ < 4096 ? cap_ : 4096);
  }

  void push(const TraceRecord& r) {
    if (buf_.size() < cap_) {
      buf_.push_back(r);
      return;
    }
    buf_[head_] = r;
    if (++head_ == cap_) head_ = 0;
    ++dropped_;
  }

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  /// Oldest records overwritten because the ring wrapped.
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// Snapshot in time order (oldest surviving record first).
  [[nodiscard]] std::vector<TraceRecord> records() const {
    std::vector<TraceRecord> out;
    out.reserve(buf_.size());
    out.insert(out.end(), buf_.begin() + static_cast<std::ptrdiff_t>(head_),
               buf_.end());
    out.insert(out.end(), buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(head_));
    return out;
  }

  void clear() {
    buf_.clear();
    head_ = 0;
    dropped_ = 0;
  }

 private:
  std::size_t cap_;
  std::size_t head_ = 0;  ///< index of the oldest record once full
  std::uint64_t dropped_ = 0;
  std::vector<TraceRecord> buf_;
};

/// What a traced component holds: the ring, the clock, and its own host
/// id. Copyable by value; a default-constructed (or null-ring) sink is
/// inert.
class TraceSink {
 public:
  TraceSink() = default;
  TraceSink(TraceRing* ring, sim::Scheduler* sched, std::uint16_t host)
      : ring_(ring), sched_(sched), host_(host) {}

  [[nodiscard]] bool active() const { return ring_ != nullptr; }

  void emit(EventKind kind, kern::Seq seq_begin, kern::Seq seq_end,
            std::uint64_t value, std::uint32_t aux = 0,
            std::uint8_t flags = 0) const {
    emit_as(host_, kind, seq_begin, seq_end, value, aux, flags);
  }

  /// Emission with an explicit host id — for components (the fault
  /// injector) that report events on behalf of many entities.
  void emit_as(std::uint16_t host, EventKind kind, kern::Seq seq_begin,
               kern::Seq seq_end, std::uint64_t value, std::uint32_t aux = 0,
               std::uint8_t flags = 0) const {
    if (ring_ == nullptr) return;
    TraceRecord r;
    r.t = sched_->now();
    r.value = value;
    r.seq_begin = seq_begin;
    r.seq_end = seq_end;
    r.aux = aux;
    r.host = host;
    r.kind = kind;
    r.flags = flags;
    ring_->push(r);
  }

 private:
  TraceRing* ring_ = nullptr;
  sim::Scheduler* sched_ = nullptr;
  std::uint16_t host_ = 0;
};

}  // namespace hrmc::trace
