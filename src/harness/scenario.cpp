#include "harness/scenario.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <memory>
#include <optional>
#include <stdexcept>
#include <type_traits>

#include "hrmc/modeled.hpp"
#include "hrmc/receiver.hpp"
#include "hrmc/sender.hpp"
#include "hrmc/wire.hpp"
#include "kern/mem.hpp"
#include "kern/skbuff.hpp"
#include "sim/scheduler.hpp"
#include "sim/shard.hpp"

namespace hrmc::harness {

namespace {

constexpr net::Addr kGroupAddr = net::make_addr(224, 5, 5, 5);
constexpr net::Port kGroupPort = 7500;
/// Sender start offset; receivers open (and JOIN) at t = 0.
constexpr sim::SimTime kSenderStart = sim::milliseconds(100);

/// Control-plane classifier for chaos control-loss faults: everything
/// except the payload-bearing types (DATA, FEC) is control. Undecodable
/// packets are not control — they die at the checksum either way.
bool is_control_packet(const kern::SkBuff& skb) {
  const auto h = proto::peek_header(skb);
  return h && h->type != proto::PacketType::kData &&
         h->type != proto::PacketType::kFec;
}

bool is_mem_fault(net::FaultKind k) {
  return k == net::FaultKind::kMemPressureStart ||
         k == net::FaultKind::kMemPressureStop ||
         k == net::FaultKind::kAllocFailStart ||
         k == net::FaultKind::kAllocFailStop;
}

/// Domain a (non-mem) fault event fires in: the domain owning every
/// component the event touches (see fault.cpp — receiver-scoped kinds
/// touch the receiver's host/NIC, group-scoped kinds the group's router
/// or its NICs; nothing touches two domains). Out-of-range targets go to
/// domain 0, whose injector rejects them at arm time.
std::size_t fault_domain(const net::FaultEvent& ev, const net::Topology& topo) {
  switch (ev.kind) {
    case net::FaultKind::kReceiverCrash:
    case net::FaultKind::kReceiverRestart:
    case net::FaultKind::kLinkDown:
    case net::FaultKind::kLinkUp:
      return ev.target < topo.receiver_count()
                 ? topo.receiver_domain(ev.target)
                 : 0;
    default:
      return ev.target < topo.group_count() ? topo.group_domain(ev.target)
                                            : 0;
  }
}

/// Adds counter struct `from` into `into`, field by field, without
/// naming a field. Counter structs hold nothing but 64-bit counters; the
/// static_assert rejects padding and floating-point fields, whose bytes a
/// word-wise add would misread.
template <typename S>
void add_counters(S& into, const S& from) {
  static_assert(std::has_unique_object_representations_v<S> &&
                alignof(S) == alignof(std::uint64_t));
  using Words = std::array<std::uint64_t, sizeof(S) / sizeof(std::uint64_t)>;
  auto sum = std::bit_cast<Words>(into);
  const auto add = std::bit_cast<Words>(from);
  for (std::size_t i = 0; i < sum.size(); ++i) sum[i] += add[i];
  into = std::bit_cast<S>(sum);
}

}  // namespace

RunResult run_transfer(const Scenario& sc) {
  // The engine. A serial run is one plain Scheduler. A sharded run is
  // the ShardEngine's domains, cut along the topology's natural seams:
  // the sender, its NIC and the backbone in domain 0, group g's whole
  // router subtree in domain 1 + g, so the only cross-domain edges are
  // the trunks and the lookahead is the trunk service time of the
  // smallest packet that can cross one (a bare header on the wire).
  // Everything per-domain below — scheduler, trace ring, fault
  // injector, memory accountant — is picked by topo.receiver_domain /
  // topo.group_domain, which are 0 on a serial topology. Each domain's
  // state is touched only by its own events while the engine runs and
  // is merged only after it stops, in fixed orders, so no worker ever
  // reads another domain's state inside a window and the result does
  // not depend on the thread count.
  std::optional<sim::Scheduler> serial;
  std::optional<sim::ShardEngine> engine;
  std::optional<net::Topology> topo_storage;
  std::vector<sim::Scheduler*> domains;
  if (sc.shard.enabled) {
    const std::size_t min_wire =
        proto::Header::kSize + kern::SkBuff::kLowerLayerBytes;
    engine.emplace(sc.topo.groups.size() + 1,
                   sim::transmission_time(static_cast<std::int64_t>(min_wire),
                                          sc.topo.network_bps));
    topo_storage.emplace(*engine, sc.topo);
    if (engine->lookahead() != topo_storage->cross_domain_lookahead(min_wire)) {
      throw std::logic_error("run_transfer: lookahead disagrees with topology");
    }
    for (std::size_t d = 0; d < engine->domain_count(); ++d) {
      domains.push_back(&engine->domain(d));
    }
  } else {
    topo_storage.emplace(serial.emplace(), sc.topo);
    domains.push_back(&*serial);
  }
  net::Topology& topo = *topo_storage;

  const net::Endpoint group{kGroupAddr, kGroupPort};

  kern::skbuff_peak_reset();  // per-run gauge window (RunResult)

  // Memory accounting (DESIGN.md §16): one accountant per domain,
  // installed only when the scenario sets a budget or the fault plan
  // arms mem windows, so every other run is bit-identical to one that
  // never heard of it. Ledgers are per host, so each host simply
  // charges its own domain's accountant. The failure RNG is a named
  // substream per domain ("mem" for domain 0, which keeps a serial
  // run's stream) and is NOT folded into rng_digest — a mem chaos run
  // must replay against the same protocol schedule digest.
  bool plan_has_mem_faults = false;
  for (const net::FaultEvent& ev : sc.faults.events) {
    if (ev.kind == net::FaultKind::kMemPressureStart ||
        ev.kind == net::FaultKind::kAllocFailStart) {
      plan_has_mem_faults = true;
      break;
    }
  }
  std::vector<std::unique_ptr<kern::MemAccountant>> mems;
  if (sc.mem_budget > 0 || plan_has_mem_faults) {
    for (std::size_t d = 0; d < domains.size(); ++d) {
      mems.push_back(std::make_unique<kern::MemAccountant>(
          sc.mem_budget,
          sim::substream_seed(sc.seed,
                              d == 0 ? "mem" : "mem:" + std::to_string(d))));
    }
    topo.sender().set_mem_accountant(mems[0].get());
    topo.sender().nic()->set_mem_admission(mems[0].get(), topo.sender().addr());
    for (std::size_t i = 0; i < topo.receiver_count(); ++i) {
      kern::MemAccountant* mem = mems[topo.receiver_domain(i)].get();
      topo.receiver(i).set_mem_accountant(mem);
      topo.receiver_nic(i).set_mem_admission(mem, topo.receiver(i).addr());
    }
  }

  // Observability: one ring per domain (a ring append is a write, so
  // concurrently running domains cannot share one), merged by timestamp
  // after the run. Each component's sink pairs its domain's ring with
  // its domain's clock and stamps its host id (the trace.hpp
  // convention); with tracing off every sink is the inert default.
  std::vector<std::unique_ptr<trace::TraceRing>> rings;
  if (sc.trace.enabled) {
    for (std::size_t d = 0; d < domains.size(); ++d) {
      rings.push_back(
          std::make_unique<trace::TraceRing>(sc.trace.ring_capacity));
    }
  }
  const auto sink = [&](std::size_t d, std::uint16_t host) {
    return rings.empty() ? trace::TraceSink()
                         : trace::TraceSink(rings[d].get(), domains[d], host);
  };
  topo.backbone().set_trace(sink(0, trace::kBackboneHost));
  for (std::size_t g = 0; g < topo.group_count(); ++g) {
    topo.group_router(g).set_trace(
        sink(topo.group_domain(g), trace::router_host(g)));
  }
  topo.sender().nic()->set_trace(sink(0, trace::nic_host(0)));
  for (std::size_t i = 0; i < topo.receiver_count(); ++i) {
    topo.receiver_nic(i).set_trace(
        sink(topo.receiver_domain(i), trace::nic_host(1 + i)));
  }

  // Which receivers does the fault plan ever crash, and which are
  // expected to hold the complete stream at the end (never crashed, or
  // crashed but restarted afterwards — a restarted receiver resyncs
  // from the current position, so it completes the *tail*, which is
  // what stream_complete() tracks; byte-pattern verification is
  // disabled for it since the skipped history would fail the check).
  std::vector<bool> crashed_ever(topo.receiver_count(), false);
  std::vector<bool> expect_complete(topo.receiver_count(), true);
  {
    std::vector<net::FaultEvent> evs = sc.faults.events;
    std::stable_sort(evs.begin(), evs.end(),
                     [](const net::FaultEvent& a, const net::FaultEvent& b) {
                       return a.at < b.at;
                     });
    for (const net::FaultEvent& ev : evs) {
      if (ev.target >= crashed_ever.size()) continue;
      if (ev.kind == net::FaultKind::kReceiverCrash) {
        crashed_ever[ev.target] = true;
        expect_complete[ev.target] = false;
      } else if (ev.kind == net::FaultKind::kReceiverRestart) {
        expect_complete[ev.target] = true;
      }
    }
  }

  // Membership churn: per-receiver open/close schedule. A late joiner
  // resyncs to the live position, so (like crash-restart) the skipped
  // history makes byte-pattern verification meaningless for it; a clean
  // leaver's delivered prefix is still fully verifiable.
  std::vector<sim::SimTime> join_at(topo.receiver_count(), -1);
  std::vector<sim::SimTime> leave_at(topo.receiver_count(), -1);
  for (const ChurnEvent& ev : sc.churn) {
    if (ev.receiver >= topo.receiver_count()) continue;
    if (ev.join) {
      join_at[ev.receiver] = ev.at;
    } else {
      leave_at[ev.receiver] = ev.at;
      expect_complete[ev.receiver] = false;
    }
  }

  // Which slots are modeled populations rather than real receivers.
  std::vector<const ModeledGroup*> modeled_of(topo.receiver_count(), nullptr);
  for (const ModeledGroup& mg : sc.modeled) {
    if (mg.receiver < modeled_of.size()) modeled_of[mg.receiver] = &mg;
  }

  // Hierarchical repair: pick one repairer per router subtree (topology
  // group) and point its group-mates' feedback at it. Roles must be
  // assigned before open() — a receiver's very first JOIN already goes
  // to its feedback target, and a child that joined the sender directly
  // would leave behind a member record the sender can never retire
  // (its later LEAVE/UPDATEs go to the repairer). Modeled slots stay
  // flat — a population already stands for a whole subtree and reports
  // its own aggregate.
  std::vector<std::size_t> repairer_of_group(topo.group_count(),
                                             topo.receiver_count());
  // A late joiner (join_at >= 0) must never be elected repairer: its
  // group-mates' JOINs would target a socket that does not exist yet,
  // and until it opens the sender gates releases on nobody in the
  // subtree — the whole stream can be released past a healthy child
  // that was simply wired to a parent the scenario hadn't born yet.
  if (sc.hierarchy.enabled) {
    for (std::size_t i = 0; i < topo.receiver_count(); ++i) {
      if (modeled_of[i] || join_at[i] >= 0) continue;
      std::size_t& slot = repairer_of_group[topo.receiver_group(i)];
      if (slot == topo.receiver_count()) slot = i;
    }
  }

  // Receivers and their applications, each built on (and scheduling
  // churn through) its own domain's clock. Vectors are indexed by
  // receiver slot; a modeled slot holds nullptr in rcv_socks/sinks and
  // its population in modeled_socks instead.
  std::vector<std::unique_ptr<proto::HrmcReceiver>> rcv_socks;
  std::vector<std::unique_ptr<proto::ModeledReceiver>> modeled_socks;
  std::vector<std::unique_ptr<app::SinkApp>> sinks;
  std::vector<sim::SimTime> modeled_complete_at(topo.receiver_count(), -1);
  // How many slots expected to complete have completed, per domain.
  // Each slot's completion callback counts it once into its own
  // domain's counter, so a domain's events write only their own, and
  // `done` sums them where every domain is quiescent.
  std::vector<std::size_t> completed_in(domains.size(), 0);
  for (std::size_t i = 0; i < topo.receiver_count(); ++i) {
    const std::size_t d = topo.receiver_domain(i);
    sim::Scheduler& dsched = *domains[d];
    std::size_t* const counted =
        expect_complete[i] ? &completed_in[d] : nullptr;
    if (const ModeledGroup* mg = modeled_of[i]) {
      auto pop = std::make_unique<proto::ModeledReceiver>(
          topo.receiver(i), sc.proto, group, mg->population, mg->leaf_loss,
          topo.sender().addr());
      pop->set_trace(sink(d, trace::receiver_host(i)));
      // A population reports completion once.
      pop->on_complete = [&dsched, &modeled_complete_at, i, counted] {
        modeled_complete_at[i] = dsched.now();
        if (counted != nullptr) ++*counted;
      };
      pop->open();
      rcv_socks.push_back(nullptr);
      sinks.push_back(nullptr);
      modeled_socks.push_back(std::move(pop));
      continue;
    }
    auto sock = std::make_unique<proto::HrmcReceiver>(
        topo.receiver(i), sc.proto, group, topo.sender().addr());
    sock->set_trace(sink(d, trace::receiver_host(i)));
    if (sc.hierarchy.enabled) {
      const std::size_t rep = repairer_of_group[topo.receiver_group(i)];
      if (rep == i) {
        sock->enable_repairer();
      } else if (rep < topo.receiver_count()) {
        sock->set_repair_parent(topo.receiver(rep).addr());
      }
    }
    app::SinkApp::Options opt;
    opt.chunk = sc.workload.chunk;
    opt.read_rate_bps = sc.workload.sink_read_rate_bps;
    opt.verify = !crashed_ever[i] && join_at[i] < 0;
    if (sc.workload.disk_sink) opt.disk = app::DiskConfig{};
    opt.seed = sim::substream_seed(sc.seed, "sink:" + std::to_string(i));
    sinks.push_back(std::make_unique<app::SinkApp>(*sock, dsched, opt));
    if (counted != nullptr) {
      sinks.back()->on_stream_complete = [counted] { ++*counted; };
    }
    proto::HrmcReceiver* raw = sock.get();
    if (join_at[i] >= 0) {
      dsched.schedule_at(join_at[i], [raw] { raw->open_resync(); });
    } else {
      sock->open();
    }
    if (leave_at[i] >= 0) {
      dsched.schedule_at(leave_at[i], [raw] { raw->close(); });
    }
    rcv_socks.push_back(std::move(sock));
    modeled_socks.push_back(nullptr);
  }

  // Fault injection: the plan is split by the domain each event fires
  // in, one injector per domain that has any (none at all for an empty
  // plan, so fault-free runs are bit-identical to runs predating the
  // injector). A mem window acts on the accountants, so it goes to
  // every domain and still squeezes every host. Substream seeds derive
  // from (sc.seed, component name), so the split never changes a draw.
  std::vector<net::FaultPlan> plans(domains.size());
  for (const net::FaultEvent& ev : sc.faults.events) {
    if (is_mem_fault(ev.kind)) {
      for (net::FaultPlan& plan : plans) plan.events.push_back(ev);
    } else {
      plans[fault_domain(ev, topo)].events.push_back(ev);
    }
  }
  std::vector<std::unique_ptr<net::FaultInjector>> injectors;
  for (std::size_t d = 0; d < domains.size(); ++d) {
    if (plans[d].empty()) continue;
    auto inj = std::make_unique<net::FaultInjector>(
        *domains[d], topo, std::move(plans[d]), sc.seed);
    inj->on_receiver_crash = [&rcv_socks](std::size_t i) {
      if (i < rcv_socks.size() && rcv_socks[i]) rcv_socks[i]->crash();
    };
    inj->on_receiver_restart = [&rcv_socks](std::size_t i) {
      if (i < rcv_socks.size() && rcv_socks[i]) rcv_socks[i]->restart();
    };
    inj->control_classifier = &is_control_packet;
    if (!mems.empty()) inj->set_mem_accountant(mems[d].get());
    inj->set_trace(sink(d, 0));
    inj->arm();
    injectors.push_back(std::move(inj));
  }

  // Sender and its application: domain 0.
  sim::Scheduler& sched0 = *domains[0];
  proto::HrmcSender snd(topo.sender(), sc.proto, kGroupPort, group);
  snd.set_trace(sink(0, trace::kSenderHost));
  app::SourceApp::Options sopt;
  sopt.total_bytes = sc.workload.file_bytes;
  sopt.chunk = sc.workload.chunk;
  if (sc.workload.disk_source) sopt.disk = app::DiskConfig{};
  sopt.seed = sim::substream_seed(sc.seed, "source");
  app::SourceApp source(snd, sched0, sopt);

  sched0.schedule_at(kSenderStart, [&source] { source.start(); });

  const auto slot_complete = [&](std::size_t i) {
    return sinks[i] ? sinks[i]->stream_complete()
                    : modeled_socks[i]->complete();
  };
  // Time series (TraceOptions::sample_period), taken inside `done`
  // below. `reached` is the earliest pending event, so every event
  // before it has run. Each period tick not yet sampled, up to `reached`
  // and never past the time limit, gets the state as it is now: on the
  // serial engine the state after every event before the tick, on the
  // sharded engine the state after every event of the epoch holding the
  // tick, at any thread count. Sampling only reads, and schedules no
  // event.
  const sim::SimTime sample_period =
      sc.trace.enabled ? sc.trace.sample_period : 0;
  std::vector<SamplePoint> samples;
  sim::SimTime next_sample = 0;
  const auto take_samples = [&] {
    sim::SimTime reached = sc.time_limit;
    for (sim::Scheduler* s : domains) {
      reached = std::min(reached, s->next_event_time());
    }
    if (next_sample > reached) return;
    SamplePoint p;
    p.rate_bps = snd.current_rate();
    p.send_window_bytes = static_cast<double>(snd.queued_bytes());
    p.naks_received = static_cast<double>(snd.stats().naks_received);
    p.rate_requests_received =
        static_cast<double>(snd.stats().rate_requests_received);
    p.retransmissions = static_cast<double>(snd.stats().retransmissions);
    for (const auto& r : rcv_socks) {
      if (!r) continue;
      p.recv_occupancy_bytes = std::max(p.recv_occupancy_bytes,
                                        static_cast<double>(r->occupancy()));
      p.recv_region =
          std::max(p.recv_region, static_cast<double>(r->flow_region()));
      p.nak_list_ranges += static_cast<double>(r->nak_backlog());
      p.update_period_jiffies = std::max(
          p.update_period_jiffies, static_cast<double>(r->update_period()));
    }
    for (; next_sample <= reached; next_sample += sample_period) {
      p.t = next_sample;
      samples.push_back(p);
    }
  };

  // Run until every receiver we *expect* to finish has finished (a
  // receiver crashed without restart never will — waiting on it would
  // just spin to the time limit) and the sender released everything.
  // The serial engine evaluates this before every event; the sharded
  // engine only at epoch barriers, where every domain is quiescent — the
  // one place a cross-domain read is safe (and deterministic: the
  // barrier schedule is thread-count independent).
  const std::size_t expected_complete = static_cast<std::size_t>(
      std::count(expect_complete.begin(), expect_complete.end(), true));
  const auto done = [&] {
    if (sample_period > 0) take_samples();
    std::size_t completed = 0;
    for (const std::size_t n : completed_in) completed += n;
    return completed == expected_complete && snd.finished();
  };

  unsigned threads = 1;
  if (engine) {
    threads = std::max(1u, sc.shard.threads);
    engine->run(done, sc.time_limit, threads);
  } else {
    sched0.run_while([&] { return !done(); }, sc.time_limit);
  }

  // Quiesce every timer before reading stats: stop() also closes a
  // stall interval still open at shutdown, so the stats counter agrees
  // with window_stall_time() even for a run that ends mid-stall.
  snd.stop();
  for (auto& r : rcv_socks) {
    if (r) r->stop();
  }
  for (auto& m : modeled_socks) {
    if (m) m->stop();
  }

  RunResult res;
  res.completed = true;
  res.sender_finished = snd.finished();
  res.sender = snd.stats();
  res.member_min_rescan_work = snd.members().min_rescan_work();
  sim::SimTime last_complete = kSenderStart;
  for (std::size_t i = 0; i < sinks.size(); ++i) {
    const bool complete = slot_complete(i);
    res.completed = res.completed && complete;
    if (expect_complete[i]) {
      ++res.survivor_count;
      if (complete) ++res.survivors_completed;
    }
    if (sinks[i]) {
      if (complete) {
        last_complete = std::max(last_complete, sinks[i]->complete_at());
      }
      res.per_receiver.push_back(rcv_socks[i]->stats());
      if (rcv_socks[i]->stream_error()) res.any_stream_error = true;
      if (sinks[i]->verify_failed()) res.verify_ok = false;
    } else {
      if (modeled_complete_at[i] >= 0) {
        last_complete = std::max(last_complete, modeled_complete_at[i]);
      }
      res.per_receiver.push_back(modeled_socks[i]->stats());
      res.modeled_leaves += modeled_socks[i]->population();
    }
    add_counters(res.receivers_total, res.per_receiver.back());
  }
  res.elapsed = last_complete - kSenderStart;
  if (res.completed && res.elapsed > 0) {
    res.throughput_mbps = static_cast<double>(sc.workload.file_bytes) * 8.0 /
                          sim::to_seconds(res.elapsed) / 1e6;
  }

  for (const auto& mem : mems) {
    res.mem_peak_bytes = std::max(res.mem_peak_bytes, mem->peak_any_host());
    res.mem_alloc_fails += mem->counters().alloc_fails;
  }
  res.mem_cache_evictions = res.receivers_total.ooo_evictions +
                            res.receivers_total.fec_evictions +
                            res.receivers_total.repair_cache_evictions;
  // The skbuff pool is per thread, so its gauges cover the whole run
  // only when every domain ran on this one.
  if (threads == 1) {
    res.skb_live_bytes_end = kern::skbuff_stats().live_bytes;
    res.skb_peak_bytes = kern::skbuff_stats().peak_bytes;
  }

  for (const sim::Scheduler* s : domains) {
    res.events_executed += s->executed();
    res.sched_compactions += s->compactions();
    res.sched_chained += s->chained();
  }
  // rng_digest: end-state of every RNG stream in the run, folded in a
  // fixed component order (network elements in topology order, then
  // per-slot protocol endpoints, then the apps). The order is part of
  // the replay-identity contract — two runs agree on the digest iff
  // every component's stream advanced identically.
  std::uint64_t digest = 0x48524d43u;  // 'HRMC'
  digest = sim::digest_mix(digest, topo.backbone().rng_digest());
  for (std::size_t g = 0; g < topo.group_count(); ++g) {
    digest = sim::digest_mix(digest, topo.group_router(g).rng_digest());
  }
  digest = sim::digest_mix(digest, topo.sender_nic().rng_digest());
  for (std::size_t i = 0; i < topo.receiver_count(); ++i) {
    digest = sim::digest_mix(digest, topo.receiver_nic(i).rng_digest());
  }
  for (std::size_t i = 0; i < rcv_socks.size(); ++i) {
    digest = sim::digest_mix(digest, rcv_socks[i]
                                         ? rcv_socks[i]->rng_digest()
                                         : modeled_socks[i]->rng_digest());
    if (sinks[i]) digest = sim::digest_mix(digest, sinks[i]->rng_digest());
  }
  res.rng_digest = sim::digest_mix(digest, source.rng_digest());

  res.sender_nic = topo.sender_nic().counters();
  res.sender_nic_tx_queued = topo.sender_nic().tx_queue_len();
  res.sender_nic_rx_held = topo.sender_nic().rx_held();
  for (std::size_t i = 0; i < topo.receiver_count(); ++i) {
    add_counters(res.receiver_nics, topo.receiver_nic(i).counters());
    res.receiver_nics_tx_queued += topo.receiver_nic(i).tx_queue_len();
    res.receiver_nics_rx_held += topo.receiver_nic(i).rx_held();
  }
  res.routers = topo.backbone().counters();
  for (std::size_t g = 0; g < topo.group_count(); ++g) {
    add_counters(res.routers, topo.group_router(g).counters());
  }
  res.sender_host = topo.sender().counters();
  res.sender_host_rx_in_cpu = topo.sender().rx_in_cpu();
  res.sender_host_tx_in_cpu = topo.sender().tx_in_cpu();
  for (net::Host* host : topo.receivers()) {
    add_counters(res.receiver_hosts, host->counters());
    res.receiver_hosts_rx_in_cpu += host->rx_in_cpu();
    res.receiver_hosts_tx_in_cpu += host->tx_in_cpu();
  }

  // Merge the rings by timestamp. stable_sort keeps each domain's
  // internal order and breaks cross-domain ties by domain index — both
  // fixed, so the merged stream is identical at every thread count. A
  // single ring is already in time order.
  for (const auto& ring : rings) {
    const std::vector<trace::TraceRecord> recs = ring->records();
    res.trace_records.insert(res.trace_records.end(), recs.begin(),
                             recs.end());
    res.trace_dropped += ring->dropped();
  }
  if (rings.size() > 1) {
    std::stable_sort(
        res.trace_records.begin(), res.trace_records.end(),
        [](const trace::TraceRecord& a, const trace::TraceRecord& b) {
          return a.t < b.t;
        });
  }
  res.samples = std::move(samples);

  if (engine) {
    res.shard_domains = engine->domain_count();
    res.shard_epochs = engine->stats().epochs;
    res.shard_handoffs = engine->stats().handoffs;
    res.shard_handoff_bytes = engine->stats().handoff_bytes;
    res.shard_control_posts = engine->stats().control_posts;
  }
  return res;
}

Scenario lan_scenario(int receivers, double network_bps,
                      std::size_t kernel_buf, const Workload& wl,
                      std::uint64_t seed) {
  Scenario sc;
  sc.name = "lan";
  sc.topo.network_bps = network_bps;
  sc.topo.seed = sim::substream_seed(seed, "topo");
  sc.topo.groups = {net::group_a(receivers)};
  sc.proto.sndbuf = kernel_buf;
  sc.proto.rcvbuf = kernel_buf;
  sc.workload = wl;
  sc.seed = seed;
  return sc;
}

Scenario test_case_scenario(int test_case, int n, double network_bps,
                            std::size_t kernel_buf, const Workload& wl,
                            std::uint64_t seed) {
  Scenario sc;
  sc.name = "test" + std::to_string(test_case);
  sc.topo.network_bps = network_bps;
  sc.topo.seed = sim::substream_seed(seed, "topo");
  switch (test_case) {
    case 1: sc.topo.groups = {net::group_a(n)}; break;
    case 2: sc.topo.groups = {net::group_b(n)}; break;
    case 3: sc.topo.groups = {net::group_c(n)}; break;
    case 4:
      sc.topo.groups = {net::group_b(n * 8 / 10),
                        net::group_c(n - n * 8 / 10)};
      break;
    case 5:
      sc.topo.groups = {net::group_b(n * 2 / 10),
                        net::group_c(n - n * 2 / 10)};
      break;
    default:
      throw std::invalid_argument("test_case must be 1..5 (Fig 14b)");
  }
  sc.proto.sndbuf = kernel_buf;
  sc.proto.rcvbuf = kernel_buf;
  sc.workload = wl;
  sc.seed = seed;
  return sc;
}

std::vector<std::size_t> buffer_sweep() {
  return {64u << 10, 128u << 10, 256u << 10, 512u << 10, 1024u << 10};
}

std::vector<std::size_t> buffer_sweep_extended() {
  return {64u << 10,  128u << 10,  256u << 10, 512u << 10,
          1024u << 10, 2048u << 10, 4096u << 10};
}

std::string buf_label(std::size_t bytes) {
  return std::to_string(bytes >> 10) + "K";
}

}  // namespace hrmc::harness
