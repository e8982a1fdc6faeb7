// Router process.
//
// Per the paper's simulation model: each router has a network speed, a
// queue size, and a loss rate. Packets are queued per *egress port*,
// given a service time according to the speed, and forwarded by
// destination; multicast packets are duplicated inside the router as
// necessary. The loss draw happens at ingress, *before* fan-out, so a
// loss here is correlated across every downstream receiver — the paper
// assigns 90% of each path's loss to the router for exactly this reason.
//
// Output queueing is per egress port (as in a real switch; links are
// full duplex): a data stream saturating the downstream ports must not
// delay or drop the receivers' feedback heading upstream.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/addr.hpp"
#include "net/disturb.hpp"
#include "net/loss.hpp"
#include "net/sink.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "sim/shard.hpp"
#include "trace/trace.hpp"

namespace hrmc::net {

struct RouterConfig {
  double speed_bps = 10e6;       ///< service rate per egress port
  std::size_t queue_limit = 512; ///< per-port FIFO capacity in packets
  double loss_rate = 0.0;        ///< correlated loss probability
};

class Router final : public PacketSink {
 public:
  Router(sim::Scheduler& sched, std::string name, RouterConfig cfg,
         std::uint64_t loss_seed);

  /// Exact-match unicast route: packets for `dst` forward to `next`.
  void add_route(Addr dst, PacketSink* next);

  /// Fallback for destinations with no exact route.
  void set_default_route(PacketSink* next) { default_route_ = next; }

  /// Adds `next` to the fan-out set for multicast group `group`.
  void join_group(Addr group, PacketSink* next);

  /// Removes `next` from the group's fan-out set.
  void leave_group(Addr group, PacketSink* next);

  /// True if the group currently has any egress here.
  [[nodiscard]] bool group_active(Addr group) const;

  void deliver(kern::SkBuffPtr skb) override;

  /// Partition state (fault injection): a down router black-holes every
  /// packet in every direction — for a group router this partitions its
  /// whole site from the rest of the internetwork. Counted as
  /// down_drops; already-queued packets still drain.
  void set_down(bool down) { down_ = down; }
  [[nodiscard]] bool is_down() const { return down_; }

  /// Route reconvergence (topology change): after a trunk flap the
  /// router must recompute its forwarding state before packets flow
  /// again; until `now + window` everything offered is black-holed
  /// (counted reconverge_drops, reason kReconverging). Real routers
  /// either black-hole or loop during this interval — we model the
  /// black-hole, which is the harder case for a NAK-based protocol
  /// because feedback dies with the data. A zero window is a no-op, so
  /// plans without flaps are bit-identical to builds without this hook.
  void start_reconvergence(sim::SimTime window);
  [[nodiscard]] bool reconverging() const;

  /// Attaches a Gilbert–Elliott burst-loss model at ingress, alongside
  /// (not replacing) the Bernoulli loss_rate. Like the Bernoulli draw it
  /// runs before multicast fan-out, so a burst loss is correlated across
  /// every downstream receiver. Owns its own RNG stream.
  void set_burst_loss(const GilbertElliottConfig& ge, std::uint64_t seed) {
    burst_loss_.emplace(ge, seed);
  }
  void clear_burst_loss() { burst_loss_.reset(); }

  /// Adversarial link behaviors (reorder/duplicate/corrupt/control-loss/
  /// jitter), applied at ingress after the loss draws and before fan-out
  /// so a disturbance is correlated across downstream receivers, like
  /// the loss models. Creates the disturber (with its own RNG substream)
  /// on first call; later calls return the same instance so a fault plan
  /// can patch individual behaviors without resetting the others' draws.
  Disturber& ensure_disturb(std::uint64_t seed) {
    if (!disturb_) disturb_.emplace(seed);
    return *disturb_;
  }

  /// Protocol-aware control-packet classifier for control-plane-only
  /// loss (net stays protocol-agnostic; the harness supplies this).
  void set_control_classifier(ControlClassifier c) { classify_control_ = c; }

  /// Per-router packet counts. Every packet offered (plus every
  /// disturber duplicate) is forwarded once or dropped under one named
  /// ingress reason, unless a disturber hold still has it — the law
  /// ingress_conserved() states. queue_drops are per egress port, after
  /// fan-out, so they sit outside that sum.
  struct Counters {
    std::uint64_t offered = 0;             ///< deliver() calls
    std::uint64_t forwarded = 0;           ///< unicast packets routed
    std::uint64_t mcast_forwarded = 0;     ///< multicast packets fanned out
    std::uint64_t down_drops = 0;          ///< router partitioned
    std::uint64_t ttl_drops = 0;
    std::uint64_t loss_drops = 0;          ///< Bernoulli loss_rate
    std::uint64_t burst_loss_drops = 0;    ///< Gilbert–Elliott model
    std::uint64_t control_loss_drops = 0;  ///< disturber, control only
    std::uint64_t reconverge_drops = 0;
    std::uint64_t no_group_drops = 0;      ///< multicast with no egress
    std::uint64_t no_route_drops = 0;      ///< unicast with no route
    std::uint64_t queue_drops = 0;         ///< egress port queue full
    std::uint64_t corrupted = 0;           ///< disturbed, still forwarded
    std::uint64_t duplicated = 0;          ///< extra copies routed
    std::uint64_t held = 0;                ///< disturber holds started

    bool operator==(const Counters&) const = default;

    /// The ingress law. `held` counts a hold when it starts, so up to
    /// `held` packets may still be waiting in one when the run stops.
    /// Linear, so it also holds on a field-wise sum of several routers.
    [[nodiscard]] bool ingress_conserved() const {
      const std::uint64_t in = offered + duplicated;
      const std::uint64_t out = forwarded + mcast_forwarded + down_drops +
                                ttl_drops + loss_drops + burst_loss_drops +
                                control_loss_drops + reconverge_drops +
                                no_group_drops + no_route_drops;
      return out <= in && in - out <= held;
    }
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Attaches a trace sink reporting enqueues and drops (with reason).
  void set_trace(trace::TraceSink sink) { trace_ = sink; }

  /// Sharded execution: marks `egress` as living in another domain.
  /// Queueing and the per-packet service time stay here (this router's
  /// port is still the bottleneck resource); only the *delivery* at the
  /// end of the service interval is posted through the engine's mailbox
  /// instead of called directly, which is what gives the engine its
  /// lookahead — the arrival lands at least one minimum service time
  /// after the instant the handoff is staged.
  void set_remote_egress(PacketSink* egress, sim::ShardEngine* engine,
                         std::size_t src_domain, std::size_t dst_domain) {
    Port& port = ports_[egress];
    port.remote_engine = engine;
    port.remote_src = src_domain;
    port.remote_dst = dst_domain;
  }

  /// Folded end-state of every RNG this router owns (Bernoulli loss,
  /// burst loss, disturber) — part of RunResult::rng_digest.
  [[nodiscard]] std::uint64_t rng_digest() const {
    std::uint64_t acc = loss_rng_.digest();
    if (burst_loss_) acc = sim::digest_mix(acc, burst_loss_->rng_digest());
    if (disturb_) acc = sim::digest_mix(acc, disturb_->rng_digest());
    return acc;
  }

 private:
  struct Port {
    std::deque<kern::SkBuffPtr> queue;
    bool busy = false;
    sim::ShardEngine* remote_engine = nullptr;  ///< set when egress is
    std::size_t remote_src = 0;                 ///< in another domain
    std::size_t remote_dst = 0;
  };

  void enqueue(PacketSink* egress, kern::SkBuffPtr skb);
  void service(PacketSink* egress, Port& port);
  /// Forwarding stage (multicast fan-out / unicast route lookup), split
  /// from deliver() so a disturbed packet can be re-injected here after
  /// its reorder hold without re-running the ingress loss draws.
  void route(kern::SkBuffPtr skb);

  sim::Scheduler* sched_;
  std::string name_;
  RouterConfig cfg_;
  sim::Rng loss_rng_;
  bool down_ = false;
  sim::SimTime reconverging_until_ = 0;
  std::optional<GilbertElliott> burst_loss_;
  std::optional<Disturber> disturb_;
  ControlClassifier classify_control_ = nullptr;

  std::unordered_map<Addr, PacketSink*> routes_;
  std::unordered_map<Addr, std::vector<PacketSink*>> groups_;
  PacketSink* default_route_ = nullptr;

  std::unordered_map<PacketSink*, Port> ports_;
  Counters counters_;
  trace::TraceSink trace_;
};

}  // namespace hrmc::net
