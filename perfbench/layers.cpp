#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "app/pattern.hpp"
#include "hrmc/fec.hpp"
#include "hrmc/wire.hpp"
#include "kern/checksum.hpp"
#include "kern/skbuff.hpp"
#include "metrics.hpp"
#include "net/addr.hpp"
#include "net/router.hpp"
#include "net/sink.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"

namespace perfbench {

namespace app = hrmc::app;
namespace fec = hrmc::proto::fec;
namespace kern = hrmc::kern;
namespace net = hrmc::net;
namespace proto = hrmc::proto;
namespace sim = hrmc::sim;

namespace {

using Clock = std::chrono::steady_clock;

/// Timed batches per function, after one untimed warm-up batch.
constexpr int kBatches = 9;

/// Results fold into this so the compiler cannot drop the timed work.
volatile std::uint64_t g_sink = 0;

double elapsed_ns(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

struct Ns {
  double ns;
  double units;
};

/// Runs `batch` once to warm up, then kBatches times under spans named
/// `name`; `batch` returns {ns spent in its timed region, units done}.
/// Returns the median ns per unit.
template <typename F>
double timed(SpanLog& spans, std::size_t parent, const std::string& name,
             F&& batch) {
  batch();
  std::vector<double> per_unit;
  for (int b = 0; b < kBatches; ++b) {
    ScopedSpan span(spans, name, parent);
    const auto [ns, units] = batch();
    per_unit.push_back(ns / units);
  }
  return median(std::move(per_unit));
}

std::vector<std::uint8_t> random_bytes(sim::Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.next_u64());
  return v;
}

// --- sim: Scheduler schedule (+ cancel) + fire --------------------------

double time_scheduler(const LayerInputs& in, SpanLog& spans,
                      std::size_t parent) {
  constexpr std::size_t kQueued = 4096;
  sim::Rng rng(sim::substream_seed(in.seed, "layers:sim"));
  std::vector<sim::SimTime> delay(kQueued);
  std::vector<char> cancel(kQueued);
  for (std::size_t i = 0; i < kQueued; ++i) {
    delay[i] = rng.uniform_int(1, 1'000'000);
    cancel[i] = rng.chance(in.cancel_share / (1.0 + in.cancel_share)) ? 1 : 0;
  }
  sim::Scheduler sched;
  std::vector<sim::EventHandle> handles(kQueued);
  std::uint64_t fired = 0;
  return timed(spans, parent, "sim.scheduler", [&] {
    const std::uint64_t before = fired;
    double ns = 0.0;
    for (int round = 0; round < 8; ++round) {
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < kQueued; ++i) {
        handles[i] = sched.schedule_after(delay[i], [&fired] { ++fired; });
      }
      for (std::size_t i = 0; i < kQueued; ++i) {
        if (cancel[i]) handles[i].cancel();
      }
      sched.run_until();
      ns += elapsed_ns(t0);
    }
    return Ns{ns, static_cast<double>(std::max<std::uint64_t>(
                      1, fired - before))};
  });
}

// --- kern: Internet checksum ---------------------------------------------

double time_checksum(const LayerInputs& in, SpanLog& spans,
                     std::size_t parent) {
  sim::Rng rng(sim::substream_seed(in.seed, "layers:kern"));
  std::vector<std::uint8_t> pkt =
      random_bytes(rng, in.payload_bytes + proto::Header::kSize);
  constexpr int kCalls = 4000;
  return timed(spans, parent, "kern.checksum", [&] {
    std::uint64_t acc = 0;
    const auto t0 = Clock::now();
    for (int i = 0; i < kCalls; ++i) {
      pkt[0] = static_cast<std::uint8_t>(i);
      const std::uint16_t c = kern::internet_checksum(pkt);
      std::memcpy(pkt.data() + 16, &c, sizeof c);
      acc += c + (kern::checksum_ok(pkt) ? 1u : 0u);
    }
    const double ns = elapsed_ns(t0);
    g_sink = g_sink + acc;
    return Ns{ns, 2.0 * kCalls * static_cast<double>(pkt.size()) / 1024.0};
  });
}

// --- net: Router multicast fan-out ---------------------------------------

class DiscardSink final : public net::PacketSink {
 public:
  void deliver(kern::SkBuffPtr skb) override { bytes_ += skb->size(); }
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }

 private:
  std::uint64_t bytes_ = 0;
};

double time_fanout(const LayerInputs& in, SpanLog& spans,
                   std::size_t parent) {
  constexpr net::Addr kGroup = net::make_addr(224, 5, 5, 5);
  constexpr std::size_t kPackets = 64;  // well under the port queue limit
  sim::Scheduler sched;
  net::RouterConfig cfg;
  cfg.speed_bps = in.network_bps;
  net::Router router(sched, "perfbench", cfg,
                     sim::substream_seed(in.seed, "layers:net"));
  const std::size_t n = std::max<std::size_t>(1, in.fanout);
  std::vector<DiscardSink> sinks(n);
  for (DiscardSink& s : sinks) router.join_group(kGroup, &s);
  const std::size_t len = in.payload_bytes + proto::Header::kSize;
  // Enough rounds per batch that each batch moves ~20k clones.
  const int rounds = static_cast<int>(
      std::max<std::size_t>(1, 20000 / (kPackets * n)));
  std::vector<kern::SkBuffPtr> batch(kPackets);
  return timed(spans, parent, "net.router_fanout", [&] {
    double ns = 0.0;
    for (int r = 0; r < rounds; ++r) {
      for (auto& skb : batch) {
        skb = kern::SkBuff::alloc(len);
        std::memset(skb->put(len), 0x5a, len);
        skb->daddr = kGroup;
      }
      const auto t0 = Clock::now();
      for (auto& skb : batch) router.deliver(std::move(skb));
      sched.run_until();
      ns += elapsed_ns(t0);
    }
    g_sink = g_sink + sinks.front().bytes();
    return Ns{ns, static_cast<double>(rounds) * kPackets * n};
  });
}

// --- hrmc: header write/read and the FEC codec ---------------------------

void time_header(const LayerInputs& in, SpanLog& spans, std::size_t parent,
                 LayerCosts& out) {
  constexpr std::size_t kPackets = 2048;
  sim::Rng rng(sim::substream_seed(in.seed, "layers:hrmc"));
  const std::vector<std::uint8_t> payload =
      random_bytes(rng, in.payload_bytes);
  std::vector<kern::SkBuffPtr> pkts(kPackets);
  const auto prepare = [&] {
    for (auto& skb : pkts) {
      skb = kern::SkBuff::alloc(payload.size());
      std::memcpy(skb->put(payload.size()), payload.data(), payload.size());
    }
  };
  proto::Header h;
  h.type = proto::PacketType::kData;
  h.length = static_cast<std::uint32_t>(payload.size());
  h.rate = 12'500'000;
  h.tries = 1;
  std::vector<double> write_ns, read_ns;
  for (int b = 0; b <= kBatches; ++b) {  // batch 0 warms up
    prepare();
    {
      ScopedSpan span(spans, "hrmc.write_header", parent);
      const auto t0 = Clock::now();
      for (auto& skb : pkts) {
        proto::write_header(*skb, h);
        h.seq += static_cast<kern::Seq>(payload.size());
      }
      if (b > 0) write_ns.push_back(elapsed_ns(t0) / kPackets);
    }
    {
      ScopedSpan span(spans, "hrmc.read_header", parent);
      std::uint64_t ok = 0;
      const auto t0 = Clock::now();
      for (auto& skb : pkts) ok += proto::read_header(*skb).has_value();
      if (b > 0) read_ns.push_back(elapsed_ns(t0) / kPackets);
      g_sink = g_sink + ok;
    }
  }
  out.hrmc_ns_header_write = median(std::move(write_ns));
  out.hrmc_ns_header_read = median(std::move(read_ns));
}

void time_fec(const LayerInputs& in, SpanLog& spans, std::size_t parent,
              LayerCosts& out) {
  const std::size_t k = std::clamp<std::size_t>(in.fec_k, 1, fec::kMaxGroup);
  const std::size_t r = std::clamp<std::size_t>(in.fec_r, 1, fec::kMaxParity);
  const std::size_t e = std::clamp<std::size_t>(in.fec_erasures, 1, r);
  const std::size_t len = in.payload_bytes;
  sim::Rng rng(sim::substream_seed(in.seed, "layers:fec"));
  std::vector<std::vector<std::uint8_t>> data(k);
  for (auto& d : data) d = random_bytes(rng, len);
  std::vector<std::vector<std::uint8_t>> parity(
      r, std::vector<std::uint8_t>(len));
  const auto encode = [&] {
    for (std::size_t j = 0; j < r; ++j) {
      std::fill(parity[j].begin(), parity[j].end(), 0);
      for (std::size_t i = 0; i < k; ++i) {
        fec::accumulate(parity[j].data(), data[i].data(), len,
                        fec::coefficient(j, i));
      }
    }
  };
  constexpr int kGroups = 64;
  out.hrmc_ns_fec_encode_group = timed(spans, parent, "hrmc.fec_encode", [&] {
    const auto t0 = Clock::now();
    for (int g = 0; g < kGroups; ++g) {
      data[0][0] = static_cast<std::uint8_t>(g);
      encode();
    }
    const double ns = elapsed_ns(t0);
    g_sink = g_sink + parity[0][0];
    return Ns{ns, static_cast<double>(kGroups)};
  });

  encode();
  // Erase e distinct shards, chosen from the seed; decode from the
  // first e parity rows.
  std::vector<std::size_t> order(k);
  for (std::size_t i = 0; i < k; ++i) order[i] = i;
  for (std::size_t i = k; i > 1; --i) {
    std::swap(order[i - 1], order[static_cast<std::size_t>(
                                rng.uniform_int(0, static_cast<std::int64_t>(
                                                       i - 1)))]);
  }
  std::vector<const std::uint8_t*> shards(k);
  for (std::size_t i = 0; i < k; ++i) shards[i] = data[i].data();
  for (std::size_t i = 0; i < e; ++i) shards[order[i]] = nullptr;
  std::vector<fec::ParityShard> parities;
  for (std::size_t j = 0; j < e; ++j) parities.push_back({j, parity[j].data()});
  std::vector<std::vector<std::uint8_t>> rebuilt;
  out.hrmc_ns_fec_decode_group = timed(spans, parent, "hrmc.fec_decode", [&] {
    std::uint64_t ok = 0;
    const auto t0 = Clock::now();
    for (int g = 0; g < kGroups; ++g) {
      ok += fec::decode(k, len, shards, parities, rebuilt) ? 1 : 0;
    }
    const double ns = elapsed_ns(t0);
    g_sink = g_sink + ok;
    return Ns{ns, static_cast<double>(kGroups)};
  });
}

// --- app: byte pattern fill/verify ---------------------------------------

void time_pattern(const LayerInputs& in, SpanLog& spans, std::size_t parent,
                  LayerCosts& out) {
  sim::Rng rng(sim::substream_seed(in.seed, "layers:app"));
  const std::size_t chunk = std::max<std::size_t>(1, in.chunk);
  std::vector<std::uint8_t> buf(chunk);
  constexpr int kChunks = 16;
  std::uint64_t offset = static_cast<std::uint64_t>(
      rng.uniform_int(0, 1 << 30));
  const double kib = static_cast<double>(kChunks) *
                     static_cast<double>(chunk) / 1024.0;
  out.app_ns_per_kb_fill = timed(spans, parent, "app.pattern_fill", [&] {
    const auto t0 = Clock::now();
    for (int c = 0; c < kChunks; ++c) {
      app::pattern_fill(buf, offset);
      offset += chunk;
    }
    const double ns = elapsed_ns(t0);
    g_sink = g_sink + buf[0];
    return Ns{ns, kib};
  });
  app::pattern_fill(buf, offset);
  out.app_ns_per_kb_verify = timed(spans, parent, "app.pattern_verify", [&] {
    std::uint64_t good = 0;
    const auto t0 = Clock::now();
    for (int c = 0; c < kChunks; ++c) {
      good += app::pattern_verify(buf, offset);
    }
    const double ns = elapsed_ns(t0);
    g_sink = g_sink + good;
    return Ns{ns, kib};
  });
}

}  // namespace

LayerCosts time_layers(const LayerInputs& in, SpanLog& spans,
                       std::size_t parent) {
  LayerCosts out;
  out.sim_ns_per_event = time_scheduler(in, spans, parent);
  out.kern_ns_per_csum_kb = time_checksum(in, spans, parent);
  out.net_ns_per_fanout_clone = time_fanout(in, spans, parent);
  time_header(in, spans, parent, out);
  if (in.fec) time_fec(in, spans, parent, out);
  time_pattern(in, spans, parent, out);
  return out;
}

}  // namespace perfbench
