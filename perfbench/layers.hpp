// Timed calls into each layer's public functions, with inputs shaped
// like the workload being measured (packet size, fan-out width, FEC
// k/r, timer cancel share, application chunk), after a warm-up batch.
#pragma once

#include <cstddef>
#include <cstdint>

#include "spans.hpp"

namespace perfbench {

struct LayerInputs {
  std::uint64_t seed = 1;
  std::size_t payload_bytes = 1460;  ///< mean DATA payload of the run
  std::size_t fanout = 10;           ///< mean receivers per group router
  double network_bps = 100e6;
  std::size_t fec_k = 8;
  std::size_t fec_r = 1;             ///< the run's parity rate
  std::size_t fec_erasures = 1;      ///< mean erasures per decoded group
  double cancel_share = 0.0;         ///< timers cancelled per event fired
  std::size_t chunk = 64 * 1024;     ///< application read/write chunk
  bool fec = false;                  ///< time the codec (FEC on in the run)
};

/// Median cost of one call (or one unit of work) per layer function.
/// FEC costs stay 0 when `fec` is off.
struct LayerCosts {
  double sim_ns_per_event = 0.0;       ///< Scheduler schedule(+cancel)+fire
  double kern_ns_per_csum_kb = 0.0;    ///< internet_checksum + checksum_ok
  double net_ns_per_fanout_clone = 0.0;  ///< Router::deliver per egress
  double hrmc_ns_header_write = 0.0;   ///< proto::write_header
  double hrmc_ns_header_read = 0.0;    ///< proto::read_header
  double hrmc_ns_fec_encode_group = 0.0;  ///< fec::accumulate, k x r
  double hrmc_ns_fec_decode_group = 0.0;  ///< fec::decode
  double app_ns_per_kb_verify = 0.0;   ///< app::pattern_verify
  double app_ns_per_kb_fill = 0.0;     ///< app::pattern_fill
};

/// Times every layer function; each batch is recorded as a span under
/// `parent`.
LayerCosts time_layers(const LayerInputs& in, SpanLog& spans,
                       std::size_t parent);

}  // namespace perfbench
