#include "net/topology.hpp"

#include <stdexcept>

#include "sim/random.hpp"

namespace hrmc::net {

GroupSpec group_a(int receivers) {
  return GroupSpec{"A", sim::milliseconds(2), 0.00005, receivers};
}
GroupSpec group_b(int receivers) {
  return GroupSpec{"B", sim::milliseconds(20), 0.005, receivers};
}
GroupSpec group_c(int receivers) {
  return GroupSpec{"C", sim::milliseconds(100), 0.02, receivers};
}

Topology::Topology(sim::Scheduler& sched, const TopologyConfig& cfg)
    : sched_(&sched), cfg_(cfg) {
  build(sched, [&sched](std::size_t) -> sim::Scheduler& { return sched; });
}

Topology::Topology(sim::ShardEngine& engine, const TopologyConfig& cfg)
    : sched_(&engine.domain(0)), cfg_(cfg), engine_(&engine) {
  if (engine.domain_count() != cfg.groups.size() + 1) {
    throw std::invalid_argument(
        "Topology: a sharded topology needs one domain per group plus the "
        "sender's");
  }
  build(engine.domain(0), [this](std::size_t g) -> sim::Scheduler& {
    return engine_->domain(group_domain(g));
  });
  // The only cross-domain edges: backbone -> group router (multicast
  // data and receiver-bound unicast) and group router -> backbone
  // (feedback via the default route). Queueing and service stay on the
  // owning router; delivery goes through the epoch mailboxes.
  for (std::size_t g = 0; g < group_routers_.size(); ++g) {
    const std::size_t d = group_domain(g);
    backbone_->set_remote_egress(group_routers_[g].get(), engine_, 0, d);
    group_routers_[g]->set_remote_egress(backbone_.get(), engine_, d, 0);
  }
}

void Topology::build(
    sim::Scheduler& backbone_sched,
    const std::function<sim::Scheduler&(std::size_t)>& group_sched) {
  const TopologyConfig& cfg = cfg_;
  sim::Scheduler& sched = backbone_sched;
  backbone_ = std::make_unique<Router>(
      sched, "backbone",
      RouterConfig{.speed_bps = cfg.network_bps},
      sim::substream_seed(cfg.seed, "router:backbone"));

  // Sender: host 10.0.0.1 on a loss-free, zero-delay access link. (Its
  // feedback path delay is carried by each receiver group's own router
  // path, matching the paper's model where the NIC delay is assigned per
  // receiver.)
  const Addr sender_addr = make_addr(10, 0, 0, 1);
  nics_.push_back(std::make_unique<Nic>(
      sched, "nic:sender",
      NicConfig{.link_bps = cfg.network_bps},
      sim::substream_seed(cfg.seed, "nic:sender")));
  sender_ = std::make_unique<Host>(sched, "sender", sender_addr);
  sender_->attach_nic(nics_[0].get());
  sender_->set_group_control(this);
  nics_[0]->attach_uplink(backbone_.get());
  nics_[0]->attach_host(sender_.get());
  backbone_->add_route(sender_addr, nics_[0].get());

  std::size_t receiver_total = 0;
  for (const GroupSpec& spec : cfg.groups) {
    receiver_total += static_cast<std::size_t>(spec.receivers);
  }
  receiver_index_.reserve(receiver_total);
  for (std::size_t g = 0; g < cfg.groups.size(); ++g) {
    const GroupSpec& spec = cfg.groups[g];
    sim::Scheduler& gsched = group_sched(g);
    const std::string rname = "router:" + spec.label;
    auto router = std::make_unique<Router>(
        gsched, rname,
        RouterConfig{.speed_bps = cfg.network_bps,
                     .loss_rate = spec.loss_rate * cfg.correlated_share},
        sim::substream_seed(cfg.seed, rname));
    // Feedback from this group's receivers heads back up to the backbone.
    router->set_default_route(backbone_.get());

    for (int r = 0; r < spec.receivers; ++r) {
      const Addr addr = make_addr(10, static_cast<unsigned>(g + 1),
                                  static_cast<unsigned>(r / 250),
                                  static_cast<unsigned>(r % 250 + 1));
      const std::string nname =
          "nic:" + spec.label + std::to_string(r);
      auto nic = std::make_unique<Nic>(
          gsched, nname,
          NicConfig{.link_bps = cfg.network_bps,
                    .rx_delay = spec.delay,
                    .rx_loss_rate =
                        spec.loss_rate * (1.0 - cfg.correlated_share)},
          sim::substream_seed(cfg.seed, nname));
      auto host = std::make_unique<Host>(
          gsched, "rcvr:" + spec.label + std::to_string(r), addr);
      host->attach_nic(nic.get());
      host->set_group_control(this);
      nic->attach_uplink(router.get());
      nic->attach_host(host.get());
      router->add_route(addr, nic.get());
      backbone_->add_route(addr, router.get());

      nics_.push_back(std::move(nic));
      receiver_index_.emplace(host.get(), receivers_.size());
      receivers_.push_back(std::move(host));
      receiver_ptrs_.push_back(receivers_.back().get());
      receiver_group_.push_back(g);
    }
    group_routers_.push_back(std::move(router));
  }
}

std::size_t Topology::host_index(const Host* host) const {
  const auto it = receiver_index_.find(host);
  if (it == receiver_index_.end()) {
    throw std::logic_error("Topology: host is not a receiver of this network");
  }
  return it->second;
}

void Topology::join_group(Addr group, Host* host) {
  if (!is_multicast(group)) {
    throw std::logic_error("Topology::join_group: not a multicast address");
  }
  if (host == sender_.get()) {
    // The sender transmits to the group but need not subscribe.
    return;
  }
  const std::size_t idx = host_index(host);
  const std::size_t g = receiver_group_[idx];
  // NIC index: sender occupies slot 0.
  Nic* nic = nics_[idx + 1].get();
  group_routers_[g]->join_group(group, nic);
  // The backbone graft crosses domains with no modeled latency, so
  // under sharding it must not touch domain 0's tables mid-window:
  // it is applied serially at the next epoch boundary (within one
  // lookahead — less than the trunk's own service time — of the IGMP
  // report that would carry it on a real network). During setup the
  // engine applies it inline, exactly like the serial topology.
  if (engine_ != nullptr) {
    Router* backbone = backbone_.get();
    Router* gr = group_routers_[g].get();
    engine_->post_control(group_domain(g), [backbone, gr, group] {
      backbone->join_group(group, gr);
    });
  } else {
    backbone_->join_group(group, group_routers_[g].get());
  }
}

void Topology::leave_group(Addr group, Host* host) {
  if (host == sender_.get()) return;
  const std::size_t idx = host_index(host);
  const std::size_t g = receiver_group_[idx];
  Nic* nic = nics_[idx + 1].get();
  group_routers_[g]->leave_group(group, nic);
  if (!group_routers_[g]->group_active(group)) {
    if (engine_ != nullptr) {
      // Prune at the boundary. A join racing in the same window posts
      // its graft behind this prune in the same FIFO, so the boundary
      // replays the local decisions in order and converges to the same
      // membership the serial topology reaches.
      Router* backbone = backbone_.get();
      Router* gr = group_routers_[g].get();
      engine_->post_control(group_domain(g), [backbone, gr, group] {
        backbone->leave_group(group, gr);
      });
    } else {
      backbone_->leave_group(group, group_routers_[g].get());
    }
  }
}

}  // namespace hrmc::net
