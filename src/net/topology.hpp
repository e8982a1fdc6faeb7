// Two-tier multicast internetwork, matching the paper's simulation study.
//
//                       sender host
//                           |  (access NIC)
//                     backbone router            (loss-free, fast)
//                    /               |
//              group router A   group router B   (90% of path loss:
//                 |      |        |      |        *correlated* drops)
//              NIC ...  NIC     NIC ...  NIC     (group delay + 10% of
//               |        |       |        |       path loss: uncorrelated)
//             rcvr ...  rcvr   rcvr ...  rcvr
//
// Receivers are partitioned into *characteristic groups* defined by a
// one-way delay and a loss rate (Fig 14a: A = 2 ms / 0.005%,
// B = 20 ms / 0.5%, C = 100 ms / 2%). The 90/10 correlated/uncorrelated
// split follows the paper's reading of [Towsley et al.]: most loss is in
// the tail links, shared by a site's receivers.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/host.hpp"
#include "net/router.hpp"
#include "sim/scheduler.hpp"
#include "sim/shard.hpp"

namespace hrmc::net {

/// One characteristic group of receivers (Fig 14a).
struct GroupSpec {
  std::string label = "A";
  sim::SimTime delay = sim::milliseconds(2);  ///< one-way path delay
  double loss_rate = 0.00005;                 ///< total path loss probability
  int receivers = 1;
};

struct TopologyConfig {
  double network_bps = 10e6;      ///< speed of every router and link
  double correlated_share = 0.9;  ///< fraction of loss placed at the router
  std::uint64_t seed = 1;
  std::vector<GroupSpec> groups;
};

/// Builds and owns the whole network. Hosts are created by the topology;
/// protocol stacks and applications attach to them afterwards.
class Topology final : public GroupControl {
 public:
  Topology(sim::Scheduler& sched, const TopologyConfig& cfg);

  /// Sharded construction: the sender host and backbone router live in
  /// the engine's domain 0; group `g` (its router, NICs, hosts — one
  /// whole router subtree) lives in domain 1 + g, so the engine needs
  /// one domain per configured group plus domain 0. The only
  /// cross-domain edges this wiring creates are the backbone's egress
  /// ports toward the group routers and those routers' default routes
  /// back — both marked remote so deliveries travel through the
  /// engine's epoch mailboxes. Components pick up their domain's
  /// Scheduler through Host::scheduler(), so protocol stacks built on
  /// this topology land in the right domain automatically.
  Topology(sim::ShardEngine& engine, const TopologyConfig& cfg);

  [[nodiscard]] Host& sender() { return *sender_; }
  [[nodiscard]] std::vector<Host*>& receivers() { return receiver_ptrs_; }
  [[nodiscard]] Host& receiver(std::size_t i) { return *receiver_ptrs_.at(i); }
  [[nodiscard]] std::size_t receiver_count() const {
    return receiver_ptrs_.size();
  }

  /// Group index (into config().groups) a receiver belongs to.
  [[nodiscard]] std::size_t receiver_group(std::size_t i) const {
    return receiver_group_.at(i);
  }

  [[nodiscard]] Router& backbone() { return *backbone_; }
  [[nodiscard]] Router& group_router(std::size_t g) {
    return *group_routers_.at(g);
  }
  [[nodiscard]] std::size_t group_count() const {
    return group_routers_.size();
  }

  /// A receiver's access NIC (fault injection flaps links here).
  [[nodiscard]] Nic& receiver_nic(std::size_t i) { return *nics_.at(i + 1); }
  [[nodiscard]] Nic& sender_nic() { return *nics_.at(0); }

  [[nodiscard]] const TopologyConfig& config() const { return cfg_; }

  /// Domain owning group g's subtree (or receiver i). Always 0 on a
  /// topology built on one plain Scheduler.
  [[nodiscard]] std::size_t group_domain(std::size_t g) const {
    return engine_ != nullptr ? 1 + g : 0;
  }
  [[nodiscard]] std::size_t receiver_domain(std::size_t i) const {
    return group_domain(receiver_group_.at(i));
  }

  /// The engine lookahead this topology supports: the service time of a
  /// `min_wire_bytes` packet on the trunk links (the only cross-domain
  /// edges), which is the soonest any cross-domain effect can land.
  [[nodiscard]] sim::SimTime cross_domain_lookahead(
      std::size_t min_wire_bytes) const {
    return sim::transmission_time(static_cast<std::int64_t>(min_wire_bytes),
                                  cfg_.network_bps);
  }

  // GroupControl: IGMP-style subscription management. Joining grafts the
  // member's NIC onto its group router and the group router onto the
  // backbone; leaving prunes.
  void join_group(Addr group, Host* host) override;
  void leave_group(Addr group, Host* host) override;

 private:
  [[nodiscard]] std::size_t host_index(const Host* host) const;
  void build(sim::Scheduler& backbone_sched,
             const std::function<sim::Scheduler&(std::size_t)>& group_sched);

  sim::Scheduler* sched_;
  TopologyConfig cfg_;
  sim::ShardEngine* engine_ = nullptr;  ///< null on a serial topology

  std::unique_ptr<Router> backbone_;
  std::vector<std::unique_ptr<Router>> group_routers_;
  std::vector<std::unique_ptr<Nic>> nics_;  // [0] = sender's
  std::unique_ptr<Host> sender_;
  std::vector<std::unique_ptr<Host>> receivers_;
  std::vector<Host*> receiver_ptrs_;
  std::vector<std::size_t> receiver_group_;
};

/// The paper's three characteristic groups (Fig 14a).
GroupSpec group_a(int receivers);  ///< LAN-like: 2 ms, 0.005%
GroupSpec group_b(int receivers);  ///< MAN-like: 20 ms, 0.5%
GroupSpec group_c(int receivers);  ///< WAN-like: 100 ms, 2%

}  // namespace hrmc::net
