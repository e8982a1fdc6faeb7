// The two kinds of benchmark run: the untraced end-to-end measurement
// and the traced per-layer run.
#pragma once

#include <cstdint>

#include "metrics.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Times set-up, then repeats passes over every cell for about
/// `seconds` (at least 4 passes) with tracing off. Reports the
/// end-to-end metrics, timings as each cell's fastest run; every cell
/// of every pass is checked.
Report run_end_to_end(const Workload& w, double seconds, SpanLog& spans);

/// Runs every cell untraced and traced once (plus a 1-thread untraced
/// run when the workload is sharded), checks them against each other
/// and trace::verify, then times each layer's functions on
/// workload-shaped inputs. Reports the per-layer metrics.
Report run_traced(const Workload& w, std::uint64_t seed, SpanLog& spans);

}  // namespace perfbench
