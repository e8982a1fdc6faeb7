// Fault-injection layer: declarative failure scenarios on the scheduler.
//
// A FaultPlan is an ordered list of timed events — receiver crash and
// restart, access-link flap, group-router partition and heal, burst-loss
// onset — that the FaultInjector replays against a Topology while a
// transfer runs. The injector owns the *network-level* consequences
// (hosts going deaf, links dropping, routers black-holing); the
// *protocol-level* consequences (a crashed receiver losing its
// reassembly state, a restarted one rejoining) are delegated through
// callbacks so the net layer stays protocol-agnostic.
//
// Determinism: the injector draws no randomness of its own. Burst-loss
// events hand each router/NIC a Gilbert–Elliott model seeded from its
// own named substream ("fault/ge:..."), so a plan never perturbs the
// existing Bernoulli loss draws — runs with an empty plan are
// bit-identical to runs without an injector at all.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "net/disturb.hpp"
#include "net/loss.hpp"
#include "net/topology.hpp"
#include "sim/scheduler.hpp"
#include "trace/trace.hpp"

namespace hrmc::kern {
class MemAccountant;
}  // namespace hrmc::kern

namespace hrmc::net {

/// Each onset kind is listed right before its recovery kind (an even
/// value, then the odd one after it); the chaos shrinker pairs them so.
enum class FaultKind {
  kReceiverCrash,    ///< target receiver's host goes deaf and mute
  kReceiverRestart,  ///< host comes back; protocol layer must rejoin
  kLinkDown,         ///< target receiver's access NIC drops everything
  kLinkUp,
  kPartition,        ///< target group's router black-holes (both ways)
  kHeal,
  kBurstLossStart,   ///< Gilbert–Elliott loss on the target group router
  kBurstLossStop,

  // Adversarial disturbances (chaos engine): each start patches one
  // behavior of the target group router's Disturber, each stop zeroes
  // it. The disturber (and its RNG substream) is created on first use
  // and survives stops, so re-arming a behavior never replays draws.
  kReorderStart,     ///< hold a random subset of packets back
  kReorderStop,
  kDuplicateStart,   ///< forward a random subset twice
  kDuplicateStop,
  kCorruptStart,     ///< flip one byte in a random subset
  kCorruptStop,
  kControlLossStart, ///< drop control-plane packets only
  kControlLossStop,
  kJitterStart,      ///< uniform extra delay on every packet
  kJitterStop,

  // Dynamic-network events. Appended (never reordered): the enum's
  // integer values are the chaos repro wire format.
  kTrunkDown,        ///< target group's trunk fails (router black-holes)
  kTrunkUp,          ///< trunk repaired; router reconverges for `delay`
  kWirelessStart,    ///< 802.11-style wireless loss on the group's NICs
  kWirelessStop,

  // Memory-pressure events (no-ops unless the harness installed a
  // kern::MemAccountant). Appended, like above: wire-format stable.
  kMemPressureStart, ///< squeeze effective budgets to (1 - mem_fraction)
  kMemPressureStop,
  kAllocFailStart,   ///< GFP_ATOMIC-style Bernoulli allocation failure
  kAllocFailStop,
};
inline constexpr std::size_t kFaultKindCount =
    static_cast<std::size_t>(FaultKind::kAllocFailStop) + 1;

struct FaultEvent {
  FaultKind kind = FaultKind::kReceiverCrash;
  sim::SimTime at = 0;
  /// Receiver index (crash/restart/link events) or group index
  /// (partition/heal/burst-loss/disturbance events).
  std::size_t target = 0;
  GilbertElliottConfig ge;  ///< kBurstLossStart only
  DisturbConfig disturb;    ///< k*Start disturbance events only
  /// kTrunkUp only: route-reconvergence window after the trunk returns.
  sim::SimTime delay = 0;
  WirelessLossConfig wireless;  ///< kWirelessStart only
  double mem_fraction = 0.0;      ///< kMemPressureStart: budget cut [0,0.95]
  double alloc_fail_prob = 0.0;   ///< kAllocFailStart: Bernoulli fail prob
};

/// Declarative event list. The chainable builders exist so scenarios
/// read as a timeline:
///   FaultPlan plan;
///   plan.crash(2, sim::seconds(1)).restart(2, sim::seconds(3));
struct FaultPlan {
  std::vector<FaultEvent> events;

  [[nodiscard]] bool empty() const { return events.empty(); }

  FaultPlan& crash(std::size_t receiver, sim::SimTime at);
  FaultPlan& restart(std::size_t receiver, sim::SimTime at);
  FaultPlan& link_down(std::size_t receiver, sim::SimTime at);
  FaultPlan& link_up(std::size_t receiver, sim::SimTime at);
  FaultPlan& partition(std::size_t group, sim::SimTime at);
  FaultPlan& heal(std::size_t group, sim::SimTime at);
  FaultPlan& burst_loss(std::size_t group, sim::SimTime at,
                        const GilbertElliottConfig& ge);
  FaultPlan& burst_loss_stop(std::size_t group, sim::SimTime at);
  FaultPlan& reorder(std::size_t group, sim::SimTime at, double prob,
                     sim::SimTime hold);
  FaultPlan& reorder_stop(std::size_t group, sim::SimTime at);
  FaultPlan& duplicate(std::size_t group, sim::SimTime at, double prob);
  FaultPlan& duplicate_stop(std::size_t group, sim::SimTime at);
  FaultPlan& corrupt(std::size_t group, sim::SimTime at, double prob);
  FaultPlan& corrupt_stop(std::size_t group, sim::SimTime at);
  FaultPlan& control_loss(std::size_t group, sim::SimTime at, double prob);
  FaultPlan& control_loss_stop(std::size_t group, sim::SimTime at);
  FaultPlan& jitter(std::size_t group, sim::SimTime at, sim::SimTime max);
  FaultPlan& jitter_stop(std::size_t group, sim::SimTime at);
  FaultPlan& trunk_down(std::size_t group, sim::SimTime at);
  /// Trunk repair; the router black-holes for `reconverge` after `at`
  /// while it recomputes forwarding state.
  FaultPlan& trunk_up(std::size_t group, sim::SimTime at,
                      sim::SimTime reconverge = 0);
  FaultPlan& wireless(std::size_t group, sim::SimTime at,
                      const WirelessLossConfig& wl);
  FaultPlan& wireless_stop(std::size_t group, sim::SimTime at);
  /// Budget squeeze: effective per-host budgets become
  /// budget * (1 - fraction) until the matching stop. Group-targeted
  /// for plan validation; the accountant itself is cell-global.
  FaultPlan& mem_pressure(std::size_t group, sim::SimTime at,
                          double fraction);
  FaultPlan& mem_pressure_stop(std::size_t group, sim::SimTime at);
  FaultPlan& alloc_fail(std::size_t group, sim::SimTime at, double prob);
  FaultPlan& alloc_fail_stop(std::size_t group, sim::SimTime at);

  /// Trunk flap schedule: `count` down/up pairs, the k-th going down
  /// at `start + k*period` and returning `down_time` later. Periods
  /// shorter than the down time produce overlapping pairs, which the
  /// injector's idempotent transitions absorb.
  FaultPlan& trunk_flaps(std::size_t group, sim::SimTime start,
                         sim::SimTime period, sim::SimTime down_time,
                         int count, sim::SimTime reconverge = 0);
};

class FaultInjector {
 public:
  /// `seed` is the scenario root seed; burst-loss substreams derive from
  /// it by name. The plan is replayed once `arm()` is called.
  FaultInjector(sim::Scheduler& sched, Topology& topo, FaultPlan plan,
                std::uint64_t seed);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Schedules every event of the plan. Call once, before (or at) t = 0
  /// of the experiment.
  void arm();

  /// Protocol-layer hooks, invoked with the receiver index *after* the
  /// network-level state change has been applied.
  std::function<void(std::size_t)> on_receiver_crash;
  std::function<void(std::size_t)> on_receiver_restart;

  /// Control-packet classifier for kControlLossStart, installed on the
  /// target router when the event fires. Supplied by the harness (which
  /// can parse protocol headers); net stays protocol-agnostic.
  ControlClassifier control_classifier = nullptr;

  /// Events of kind `k` applied. Idempotent transitions (crash,
  /// restart, link, partition, heal, trunk) count only when they changed
  /// state; the start/stop kinds count every firing.
  [[nodiscard]] std::uint64_t count(FaultKind k) const {
    return counts_[static_cast<std::size_t>(k)];
  }

  /// Attaches a trace sink; down/up events are emitted on behalf of the
  /// affected entity using the shared host-id convention (receiver i →
  /// receiver_host(i), its NIC → nic_host(1+i), group router g →
  /// router_host(g)).
  void set_trace(trace::TraceSink sink) { trace_ = sink; }

  /// Attaches the cell's memory accountant; without one the mem-pressure
  /// and alloc-fail events are no-ops (counted, applying nothing).
  void set_mem_accountant(kern::MemAccountant* mem) { mem_ = mem; }

 private:
  void fire(const FaultEvent& ev);
  Disturber& disturber(std::size_t group);

  trace::TraceSink trace_;

  sim::Scheduler* sched_;
  Topology* topo_;
  kern::MemAccountant* mem_ = nullptr;
  FaultPlan plan_;
  std::uint64_t seed_;
  bool armed_ = false;
  std::array<std::uint64_t, kFaultKindCount> counts_{};
};

}  // namespace hrmc::net
