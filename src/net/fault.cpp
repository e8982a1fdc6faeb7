#include "net/fault.hpp"

#include <stdexcept>
#include <string>

#include "kern/mem.hpp"
#include "sim/random.hpp"

namespace hrmc::net {

namespace {
FaultEvent make_event(FaultKind kind, sim::SimTime at, std::size_t target) {
  FaultEvent ev;
  ev.kind = kind;
  ev.at = at;
  ev.target = target;
  return ev;
}
}  // namespace

FaultPlan& FaultPlan::crash(std::size_t receiver, sim::SimTime at) {
  events.push_back(make_event(FaultKind::kReceiverCrash, at, receiver));
  return *this;
}

FaultPlan& FaultPlan::restart(std::size_t receiver, sim::SimTime at) {
  events.push_back(make_event(FaultKind::kReceiverRestart, at, receiver));
  return *this;
}

FaultPlan& FaultPlan::link_down(std::size_t receiver, sim::SimTime at) {
  events.push_back(make_event(FaultKind::kLinkDown, at, receiver));
  return *this;
}

FaultPlan& FaultPlan::link_up(std::size_t receiver, sim::SimTime at) {
  events.push_back(make_event(FaultKind::kLinkUp, at, receiver));
  return *this;
}

FaultPlan& FaultPlan::partition(std::size_t group, sim::SimTime at) {
  events.push_back(make_event(FaultKind::kPartition, at, group));
  return *this;
}

FaultPlan& FaultPlan::heal(std::size_t group, sim::SimTime at) {
  events.push_back(make_event(FaultKind::kHeal, at, group));
  return *this;
}

FaultPlan& FaultPlan::burst_loss(std::size_t group, sim::SimTime at,
                                 const GilbertElliottConfig& ge) {
  FaultEvent ev = make_event(FaultKind::kBurstLossStart, at, group);
  ev.ge = ge;
  events.push_back(ev);
  return *this;
}

FaultPlan& FaultPlan::burst_loss_stop(std::size_t group, sim::SimTime at) {
  events.push_back(make_event(FaultKind::kBurstLossStop, at, group));
  return *this;
}

FaultPlan& FaultPlan::reorder(std::size_t group, sim::SimTime at, double prob,
                              sim::SimTime hold) {
  FaultEvent ev = make_event(FaultKind::kReorderStart, at, group);
  ev.disturb.reorder_prob = prob;
  ev.disturb.reorder_hold = hold;
  events.push_back(ev);
  return *this;
}

FaultPlan& FaultPlan::reorder_stop(std::size_t group, sim::SimTime at) {
  events.push_back(make_event(FaultKind::kReorderStop, at, group));
  return *this;
}

FaultPlan& FaultPlan::duplicate(std::size_t group, sim::SimTime at,
                                double prob) {
  FaultEvent ev = make_event(FaultKind::kDuplicateStart, at, group);
  ev.disturb.dup_prob = prob;
  events.push_back(ev);
  return *this;
}

FaultPlan& FaultPlan::duplicate_stop(std::size_t group, sim::SimTime at) {
  events.push_back(make_event(FaultKind::kDuplicateStop, at, group));
  return *this;
}

FaultPlan& FaultPlan::corrupt(std::size_t group, sim::SimTime at,
                              double prob) {
  FaultEvent ev = make_event(FaultKind::kCorruptStart, at, group);
  ev.disturb.corrupt_prob = prob;
  events.push_back(ev);
  return *this;
}

FaultPlan& FaultPlan::corrupt_stop(std::size_t group, sim::SimTime at) {
  events.push_back(make_event(FaultKind::kCorruptStop, at, group));
  return *this;
}

FaultPlan& FaultPlan::control_loss(std::size_t group, sim::SimTime at,
                                   double prob) {
  FaultEvent ev = make_event(FaultKind::kControlLossStart, at, group);
  ev.disturb.control_loss_prob = prob;
  events.push_back(ev);
  return *this;
}

FaultPlan& FaultPlan::control_loss_stop(std::size_t group, sim::SimTime at) {
  events.push_back(make_event(FaultKind::kControlLossStop, at, group));
  return *this;
}

FaultPlan& FaultPlan::jitter(std::size_t group, sim::SimTime at,
                             sim::SimTime max) {
  FaultEvent ev = make_event(FaultKind::kJitterStart, at, group);
  ev.disturb.jitter = max;
  events.push_back(ev);
  return *this;
}

FaultPlan& FaultPlan::jitter_stop(std::size_t group, sim::SimTime at) {
  events.push_back(make_event(FaultKind::kJitterStop, at, group));
  return *this;
}

FaultPlan& FaultPlan::trunk_down(std::size_t group, sim::SimTime at) {
  events.push_back(make_event(FaultKind::kTrunkDown, at, group));
  return *this;
}

FaultPlan& FaultPlan::trunk_up(std::size_t group, sim::SimTime at,
                               sim::SimTime reconverge) {
  FaultEvent ev = make_event(FaultKind::kTrunkUp, at, group);
  ev.delay = reconverge;
  events.push_back(ev);
  return *this;
}

FaultPlan& FaultPlan::wireless(std::size_t group, sim::SimTime at,
                               const WirelessLossConfig& wl) {
  FaultEvent ev = make_event(FaultKind::kWirelessStart, at, group);
  ev.wireless = wl;
  events.push_back(ev);
  return *this;
}

FaultPlan& FaultPlan::wireless_stop(std::size_t group, sim::SimTime at) {
  events.push_back(make_event(FaultKind::kWirelessStop, at, group));
  return *this;
}

FaultPlan& FaultPlan::mem_pressure(std::size_t group, sim::SimTime at,
                                   double fraction) {
  FaultEvent ev = make_event(FaultKind::kMemPressureStart, at, group);
  ev.mem_fraction = fraction;
  events.push_back(ev);
  return *this;
}

FaultPlan& FaultPlan::mem_pressure_stop(std::size_t group, sim::SimTime at) {
  events.push_back(make_event(FaultKind::kMemPressureStop, at, group));
  return *this;
}

FaultPlan& FaultPlan::alloc_fail(std::size_t group, sim::SimTime at,
                                 double prob) {
  FaultEvent ev = make_event(FaultKind::kAllocFailStart, at, group);
  ev.alloc_fail_prob = prob;
  events.push_back(ev);
  return *this;
}

FaultPlan& FaultPlan::alloc_fail_stop(std::size_t group, sim::SimTime at) {
  events.push_back(make_event(FaultKind::kAllocFailStop, at, group));
  return *this;
}

FaultPlan& FaultPlan::trunk_flaps(std::size_t group, sim::SimTime start,
                                  sim::SimTime period, sim::SimTime down_time,
                                  int count, sim::SimTime reconverge) {
  for (int k = 0; k < count; ++k) {
    const sim::SimTime at = start + k * period;
    trunk_down(group, at);
    trunk_up(group, at + down_time, reconverge);
  }
  return *this;
}

FaultInjector::FaultInjector(sim::Scheduler& sched, Topology& topo,
                             FaultPlan plan, std::uint64_t seed)
    : sched_(&sched), topo_(&topo), plan_(std::move(plan)), seed_(seed) {}

void FaultInjector::arm() {
  if (armed_) return;
  armed_ = true;
  for (const FaultEvent& ev : plan_.events) {
    // Fail at arm time, not mid-run: a typo'd index in a declarative
    // plan should be a clear configuration error, not an abort from
    // deep inside the event loop.
    const bool group_scoped = ev.kind == FaultKind::kPartition ||
                              ev.kind == FaultKind::kHeal ||
                              ev.kind == FaultKind::kBurstLossStart ||
                              ev.kind == FaultKind::kBurstLossStop ||
                              ev.kind >= FaultKind::kReorderStart;
    const std::size_t limit =
        group_scoped ? topo_->group_count() : topo_->receiver_count();
    if (ev.target >= limit) {
      throw std::invalid_argument(
          "FaultPlan event targets " +
          std::string(group_scoped ? "group " : "receiver ") +
          std::to_string(ev.target) + " but the topology has only " +
          std::to_string(limit));
    }
    sched_->schedule_at(ev.at, [this, ev] { fire(ev); });
  }
}

void FaultInjector::fire(const FaultEvent& ev) {
  const auto mark = [&](std::uint16_t host, bool down) {
    trace_.emit_as(host, down ? trace::EventKind::kDown : trace::EventKind::kUp,
                   0, 0, 0, static_cast<std::uint32_t>(ev.kind));
  };
  // State-transition events are idempotent: a duplicate crash for an
  // already-down host (or a restart for a live one, a heal for an
  // unpartitioned router) is a no-op — it returns before applying any
  // state change, emitting a trace mark, invoking a protocol callback or
  // counting. This keeps overlapping fault pairs well-defined: without
  // it a redundant restart would emit a bare kUp that re-arms the
  // receiver in the release-safety checker while its resync is still in
  // flight.
  switch (ev.kind) {
    case FaultKind::kReceiverCrash:
      if (topo_->receiver(ev.target).is_down()) return;
      topo_->receiver(ev.target).set_down(true);
      mark(trace::receiver_host(ev.target), true);
      if (on_receiver_crash) on_receiver_crash(ev.target);
      break;
    case FaultKind::kReceiverRestart:
      if (!topo_->receiver(ev.target).is_down()) return;
      topo_->receiver(ev.target).set_down(false);
      mark(trace::receiver_host(ev.target), false);
      if (on_receiver_restart) on_receiver_restart(ev.target);
      break;
    case FaultKind::kLinkDown:
      if (!topo_->receiver_nic(ev.target).link_up()) return;
      topo_->receiver_nic(ev.target).set_link_up(false);
      // The receiver behind a dead access link is unreachable: for the
      // release-safety invariant this is indistinguishable from a crash.
      mark(trace::receiver_host(ev.target), true);
      mark(trace::nic_host(1 + ev.target), true);
      break;
    case FaultKind::kLinkUp:
      if (topo_->receiver_nic(ev.target).link_up()) return;
      topo_->receiver_nic(ev.target).set_link_up(true);
      mark(trace::receiver_host(ev.target), false);
      mark(trace::nic_host(1 + ev.target), false);
      break;
    case FaultKind::kPartition:
      if (topo_->group_router(ev.target).is_down()) return;
      topo_->group_router(ev.target).set_down(true);
      mark(trace::router_host(ev.target), true);
      break;
    case FaultKind::kHeal:
      if (!topo_->group_router(ev.target).is_down()) return;
      topo_->group_router(ev.target).set_down(false);
      mark(trace::router_host(ev.target), false);
      break;
    case FaultKind::kBurstLossStart:
      topo_->group_router(ev.target).set_burst_loss(
          ev.ge, sim::substream_seed(
                     seed_, "fault/ge:router:" + std::to_string(ev.target)));
      break;
    case FaultKind::kBurstLossStop:
      topo_->group_router(ev.target).clear_burst_loss();
      break;
    case FaultKind::kReorderStart: {
      DisturbConfig& d = disturber(ev.target).config();
      d.reorder_prob = ev.disturb.reorder_prob;
      d.reorder_hold = ev.disturb.reorder_hold;
      break;
    }
    case FaultKind::kReorderStop: {
      DisturbConfig& d = disturber(ev.target).config();
      d.reorder_prob = 0.0;
      d.reorder_hold = 0;
      break;
    }
    case FaultKind::kDuplicateStart:
      disturber(ev.target).config().dup_prob = ev.disturb.dup_prob;
      break;
    case FaultKind::kDuplicateStop:
      disturber(ev.target).config().dup_prob = 0.0;
      break;
    case FaultKind::kCorruptStart:
      disturber(ev.target).config().corrupt_prob = ev.disturb.corrupt_prob;
      break;
    case FaultKind::kCorruptStop:
      disturber(ev.target).config().corrupt_prob = 0.0;
      break;
    case FaultKind::kControlLossStart:
      topo_->group_router(ev.target).set_control_classifier(
          control_classifier);
      disturber(ev.target).config().control_loss_prob =
          ev.disturb.control_loss_prob;
      break;
    case FaultKind::kControlLossStop:
      disturber(ev.target).config().control_loss_prob = 0.0;
      break;
    case FaultKind::kJitterStart:
      disturber(ev.target).config().jitter = ev.disturb.jitter;
      break;
    case FaultKind::kJitterStop:
      disturber(ev.target).config().jitter = 0;
      break;
    case FaultKind::kTrunkDown:
      if (topo_->group_router(ev.target).is_down()) return;
      topo_->group_router(ev.target).set_down(true);
      mark(trace::router_host(ev.target), true);
      break;
    case FaultKind::kTrunkUp:
      if (!topo_->group_router(ev.target).is_down()) return;
      topo_->group_router(ev.target).set_down(false);
      // The trunk is physically back but the router has not recomputed
      // forwarding state yet: black-hole for the reconvergence window.
      topo_->group_router(ev.target).start_reconvergence(ev.delay);
      mark(trace::router_host(ev.target), false);
      break;
    case FaultKind::kWirelessStart:
      // Per-link instances: every receiver NIC behind the target group
      // router gets its own model with a distinct RNG substream and a
      // distinct SNR phase, so fades are bursty per link without being
      // lockstep across the site.
      for (std::size_t i = 0; i < topo_->receiver_count(); ++i) {
        if (topo_->receiver_group(i) != ev.target) continue;
        WirelessLossConfig wl = ev.wireless;
        wl.snr_phase += 0.37 * static_cast<double>(i);
        wl.snr_phase -= static_cast<double>(static_cast<long>(wl.snr_phase));
        topo_->receiver_nic(i).set_wireless_loss(
            wl, sim::substream_seed(seed_,
                                    "fault/wl:nic:" + std::to_string(i)));
      }
      break;
    case FaultKind::kWirelessStop:
      for (std::size_t i = 0; i < topo_->receiver_count(); ++i) {
        if (topo_->receiver_group(i) != ev.target) continue;
        topo_->receiver_nic(i).clear_wireless_loss();
      }
      break;
    case FaultKind::kMemPressureStart:
      if (mem_ != nullptr) mem_->set_squeeze(ev.mem_fraction);
      break;
    case FaultKind::kMemPressureStop:
      if (mem_ != nullptr) mem_->set_squeeze(0.0);
      break;
    case FaultKind::kAllocFailStart:
      if (mem_ != nullptr) mem_->set_alloc_fail_prob(ev.alloc_fail_prob);
      break;
    case FaultKind::kAllocFailStop:
      if (mem_ != nullptr) mem_->set_alloc_fail_prob(0.0);
      break;
  }
  ++counts_[static_cast<std::size_t>(ev.kind)];
}

Disturber& FaultInjector::disturber(std::size_t group) {
  // One disturber per group router, seeded from its own named substream
  // on first use; behaviors patch its config in place, so stop/start
  // pairs never reset the RNG position of other armed behaviors.
  return topo_->group_router(group).ensure_disturb(sim::substream_seed(
      seed_, "fault/disturb:router:" + std::to_string(group)));
}

}  // namespace hrmc::net
