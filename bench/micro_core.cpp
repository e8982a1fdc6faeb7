// Microbenchmarks (google-benchmark) for the hot paths of the protocol
// implementation — header codec, checksum, member-table lookup, NAK list
// maintenance, sk_buff queues and the event scheduler — plus the "core
// workload", a fixed router-fan-out + timer-churn scenario whose
// events/sec is recorded to BENCH_core.json and checked against a floor
// per workload: the exit status is 1 when any rate falls below its floor.
//
// Usage:
//   micro_core                  core workload + all microbenchmarks
//   micro_core --core-only    core workload only (what CI runs)
//   micro_core --benchmark_filter=...   forwarded to google-benchmark
#include <benchmark/benchmark.h>

#include <cstring>
#include <iostream>
#include <string_view>
#include <vector>

#include "bench_json.hpp"
#include "hrmc/member.hpp"
#include "hrmc/nak_list.hpp"
#include "hrmc/wire.hpp"
#include "kern/checksum.hpp"
#include "kern/skbuff.hpp"
#include "net/router.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"

namespace {

using namespace hrmc;

// ---------------------------------------------------------------------
// Core workload: the two paths that dominate every simulation run.
//
// Fan-out: a router duplicating a 1460-byte data stream to N group
// members (the multicast hot path — one clone per egress). Each sink
// strips the header exactly like the receive path does.
//
// Timer churn: each tick cancels its previously armed event (a
// tombstone for the scheduler to absorb) and schedules two more. That
// was kern::TimerList's re-arm until mod_timer began postponing a
// pending timer in place (Scheduler::postpone, no tombstone). The
// workload and its floors are kept; it now times the cancel path that
// an earlier re-arm or a del_timer takes.
// ---------------------------------------------------------------------

constexpr int kFanoutReceivers = 32;
constexpr int kFanoutPackets = 20000;
constexpr int kChurners = 128;
constexpr int kChurnTicks = 5000;  // per churner

class HeaderStripSink final : public net::PacketSink {
 public:
  void deliver(kern::SkBuffPtr skb) override {
    skb->pull(proto::Header::kSize);  // view-only, like the receive path
    bytes += skb->size();
    ++packets;
  }
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
};

struct Churner {
  sim::Scheduler* sched = nullptr;
  sim::SimTime period = 0;
  int remaining = 0;
  sim::EventHandle dummy;

  void tick() {
    // Cancel + re-arm: the previously armed deadline is cancelled
    // (tombstone) and a new one armed further out; the tick itself
    // rearms. TimerList::mod_timer would postpone that deadline in
    // place instead (see "Timer churn" above).
    dummy.cancel();
    dummy = sched->schedule_after(period * 10, [] {});
    if (--remaining > 0) {
      sched->schedule_after(period, [this] { tick(); });
    }
  }
};

struct CoreResult {
  std::uint64_t events = 0;
  double wall_s = 0.0;
  std::uint64_t packets_delivered = 0;
  kern::SkBuffStats skb;
};

CoreResult run_core_workload(bool fanout, bool churn) {
  sim::Scheduler sched;

  net::RouterConfig cfg;
  cfg.speed_bps = 1e9;
  cfg.queue_limit = 4096;
  net::Router router(sched, "core", cfg, /*loss_seed=*/1);
  std::vector<HeaderStripSink> sinks(kFanoutReceivers);
  const net::Addr group = net::make_addr(224, 9, 9, 9);
  for (auto& s : sinks) router.join_group(group, &s);

  int packets_left = fanout ? kFanoutPackets : 0;
  std::function<void()> inject = [&] {
    auto skb = kern::SkBuff::alloc(1460, 64);
    skb->put(1460);
    proto::Header h;
    h.seq = static_cast<kern::Seq>(packets_left) * 1460;
    h.length = 1460;
    h.type = proto::PacketType::kData;
    proto::write_header(*skb, h);
    skb->daddr = group;
    router.deliver(std::move(skb));
    if (--packets_left > 0) sched.schedule_after(sim::microseconds(50), inject);
  };
  if (fanout) sched.schedule_at(0, inject);

  std::vector<Churner> churners(kChurners);
  if (churn) {
    for (int i = 0; i < kChurners; ++i) {
      churners[i].sched = &sched;
      churners[i].period = sim::microseconds(200);
      churners[i].remaining = kChurnTicks;
      sched.schedule_at(sim::microseconds(i), [c = &churners[i]] { c->tick(); });
    }
  }

  kern::skbuff_stats_reset();
  const double t0 = bench::wall_seconds();
  sched.run_until();
  const double t1 = bench::wall_seconds();

  CoreResult r;
  r.events = sched.executed();
  r.wall_s = t1 - t0;
  r.skb = kern::skbuff_stats();
  for (const auto& s : sinks) r.packets_delivered += s.packets;
  return r;
}

/// Records one core workload; returns false when its events/sec is
/// below `floor`.
bool record(bench::BenchReport& report, const std::string& name,
            const CoreResult& r, double floor) {
  const double evps = r.wall_s > 0 ? static_cast<double>(r.events) / r.wall_s
                                   : 0.0;
  report.metric(name, "events", static_cast<double>(r.events));
  report.metric(name, "wall_s", r.wall_s);
  report.metric(name, "events_per_sec", evps);
  report.metric(name, "ns_per_event",
                r.events > 0 ? r.wall_s * 1e9 / static_cast<double>(r.events)
                             : 0.0);
  report.metric(name, "packets_delivered",
                static_cast<double>(r.packets_delivered));
  report.metric(name, "clones", static_cast<double>(r.skb.clones));
  report.metric(name, "cow_copies", static_cast<double>(r.skb.cow_copies));
  report.metric(name, "pool_hits", static_cast<double>(r.skb.pool_hits));
  report.metric(name, "block_allocs", static_cast<double>(r.skb.block_allocs));
  if (r.packets_delivered > 0) {
    report.metric(name, "clones_per_packet",
                  static_cast<double>(r.skb.clones) /
                      static_cast<double>(r.packets_delivered));
  }
  std::cout << name << ": " << r.events << " events in " << r.wall_s
            << " s  (" << static_cast<std::uint64_t>(evps)
            << " events/sec; " << r.skb.clones << " clones, "
            << r.skb.cow_copies << " COW copies)\n";
  if (evps >= floor) return true;
  std::cout << "FAIL: " << name << " is below its floor of "
            << static_cast<std::uint64_t>(floor) << " events/sec\n";
  return false;
}

// Events/sec floors. They sit far enough under the rates measured on a
// shared 4-core host (GCC 12.2, Release + LTO: 12.6M-21.7M / 7.9M-10.0M /
// 8.7M-12.0M over four runs) that machine variance does not trip them;
// a change that makes the scheduler or the fan-out path several times
// slower does.
constexpr double kFanoutFloor = 4.8e6;
constexpr double kChurnFloor = 3.6e6;
constexpr double kCombinedFloor = 4.0e6;

/// Runs the core workloads and writes BENCH_core.json; returns false when
/// the write fails. `floors_met` reports whether every rate met its floor.
bool run_core_and_report(bool& floors_met) {
  bench::BenchReport report("core");
  floors_met = record(report, "router_fanout",
                      run_core_workload(true, false), kFanoutFloor);
  floors_met &= record(report, "timer_churn", run_core_workload(false, true),
                       kChurnFloor);
  floors_met &= record(report, "fanout_plus_timer_churn",
                       run_core_workload(true, true), kCombinedFloor);
  const std::string path = bench::bench_json_path("BENCH_core.json");
  if (!report.write_file(path)) return false;
  std::cout << "wrote " << path << "\n\n";
  return true;
}

// ---------------------------------------------------------------------
// Microbenchmarks
// ---------------------------------------------------------------------

void BM_HeaderWrite(benchmark::State& state) {
  auto skb = kern::SkBuff::alloc(1460, 64);
  skb->put(1460);
  proto::Header h;
  h.seq = 123456;
  h.rate = 1'000'000;
  h.length = 1460;
  h.type = proto::PacketType::kData;
  for (auto _ : state) {
    write_header(*skb, h);
    skb->pull(proto::Header::kSize);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1480);
}
BENCHMARK(BM_HeaderWrite);

void BM_HeaderRead(benchmark::State& state) {
  auto skb = kern::SkBuff::alloc(1460, 64);
  skb->put(1460);
  proto::Header h;
  h.length = 1460;
  h.type = proto::PacketType::kData;
  write_header(*skb, h);
  for (auto _ : state) {
    auto parsed = proto::read_header(*skb);
    benchmark::DoNotOptimize(parsed);
    skb->push(proto::Header::kSize);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1480);
}
BENCHMARK(BM_HeaderRead);

void BM_InternetChecksum(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)));
  sim::Rng rng(1);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
  for (auto _ : state) {
    benchmark::DoNotOptimize(kern::internet_checksum(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_InternetChecksum)->Arg(64)->Arg(1460)->Arg(9000);

void BM_MemberLookup(benchmark::State& state) {
  proto::MemberTable table;
  const int n = static_cast<int>(state.range(0));
  std::vector<net::Addr> addrs;
  for (int i = 0; i < n; ++i) {
    const net::Addr a = net::make_addr(10, 1, static_cast<unsigned>(i / 250),
                                       static_cast<unsigned>(i % 250 + 1));
    table.add(a, 1);
    addrs.push_back(a);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.find(addrs[i++ % addrs.size()]));
  }
}
BENCHMARK(BM_MemberLookup)->Arg(10)->Arg(100)->Arg(1000);

void BM_MemberAllHave(benchmark::State& state) {
  proto::MemberTable table;
  const int n = static_cast<int>(state.range(0));
  for (int i = 0; i < n; ++i) {
    table.add(net::make_addr(10, 1, static_cast<unsigned>(i / 250),
                             static_cast<unsigned>(i % 250 + 1)),
              1000000);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.all_have(999999));
  }
}
BENCHMARK(BM_MemberAllHave)->Arg(10)->Arg(100)->Arg(1000);

void BM_NakListChurn(benchmark::State& state) {
  for (auto _ : state) {
    proto::NakList l;
    for (kern::Seq s = 0; s < 100; ++s) {
      l.add_gap(s * 3000, s * 3000 + 1500, 0);
    }
    for (kern::Seq s = 0; s < 100; ++s) {
      l.fill(s * 3000, s * 3000 + 1500);
    }
    benchmark::DoNotOptimize(l.empty());
  }
}
BENCHMARK(BM_NakListChurn);

void BM_SkBuffQueueFifo(benchmark::State& state) {
  for (auto _ : state) {
    kern::SkBuffQueue q;
    for (int i = 0; i < 64; ++i) {
      auto skb = kern::SkBuff::alloc(1460, 64);
      skb->put(1460);
      q.push_back(std::move(skb));
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.pop_front());
  }
}
BENCHMARK(BM_SkBuffQueueFifo);

void BM_SkBuffAllocPooled(benchmark::State& state) {
  // Steady-state packet allocation: after the first lap every block
  // comes from the thread's free list.
  for (auto _ : state) {
    auto skb = kern::SkBuff::alloc(1460, 64);
    skb->put(1460);
    benchmark::DoNotOptimize(skb);
  }
}
BENCHMARK(BM_SkBuffAllocPooled);

void BM_SkBuffCloneFanout(benchmark::State& state) {
  // The router duplication pattern: one packet cloned to N egresses.
  const int n = static_cast<int>(state.range(0));
  auto skb = kern::SkBuff::alloc(1460, 64);
  skb->put(1460);
  std::vector<kern::SkBuffPtr> out;
  out.reserve(static_cast<std::size_t>(n));
  for (auto _ : state) {
    for (int i = 0; i < n; ++i) out.push_back(skb->clone());
    benchmark::DoNotOptimize(out.data());
    out.clear();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * n * 1460);
}
BENCHMARK(BM_SkBuffCloneFanout)->Arg(2)->Arg(8)->Arg(32);

void BM_SchedulerChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler sched;
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
      sched.schedule_at(sim::microseconds(i * 7 % 500), [&] { ++fired; });
    }
    sched.run_until();
    benchmark::DoNotOptimize(fired);
  }
}
BENCHMARK(BM_SchedulerChurn);

void BM_SchedulerCancelChurn(benchmark::State& state) {
  // Most scheduled events are cancelled and rearmed before they fire.
  // Exercises slot reuse and tombstone compaction. TimerList::mod_timer
  // no longer works this way for a later expiry (it postpones in
  // place), so this times the cancel path, not today's mod_timer.
  for (auto _ : state) {
    sim::Scheduler sched;
    int fired = 0;
    sim::EventHandle pending;
    for (int i = 0; i < 1000; ++i) {
      pending.cancel();
      pending =
          sched.schedule_at(sim::microseconds(1000 + i), [&] { ++fired; });
      sched.schedule_at(sim::microseconds(i), [&] { ++fired; });
    }
    sched.run_until();
    benchmark::DoNotOptimize(fired);
  }
}
BENCHMARK(BM_SchedulerCancelChurn);

void BM_RngU64(benchmark::State& state) {
  sim::Rng rng(7);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next_u64());
}
BENCHMARK(BM_RngU64);

}  // namespace

int main(int argc, char** argv) {
  bool core_only = false;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--core-only") {
      core_only = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  bool floors_met = false;
  if (!run_core_and_report(floors_met)) return 1;
  const int rc = floors_met ? 0 : 1;
  if (core_only) return rc;

  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return rc;
}
