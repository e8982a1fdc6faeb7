#include "sim/shard.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <utility>

namespace hrmc::sim {

namespace {

/// Bounded spin before yielding: on a loaded (or single-core) machine
/// the other side may not be running at all, and burning the timeslice
/// spinning would stall it further. ~100 relaxed loads cover the
/// uncontended case; after that, hand the core back.
class SpinWait {
 public:
  void pause() {
    if (++spins_ < 128) return;
    std::this_thread::yield();
  }

 private:
  unsigned spins_ = 0;
};

}  // namespace

ShardEngine::ShardEngine(std::size_t domains, SimTime lookahead)
    : lookahead_(lookahead), claimed_(domains), next_at_(domains) {
  if (domains == 0) {
    throw std::invalid_argument("ShardEngine: need at least one domain");
  }
  if (lookahead <= 0) {
    throw std::invalid_argument("ShardEngine: lookahead must be positive");
  }
  domains_.reserve(domains);
  for (std::size_t d = 0; d < domains; ++d) {
    domains_.push_back(std::make_unique<Scheduler>());
  }
  staged_.resize(domains * domains);
  dirty_.resize(domains);
  controls_.resize(domains);
}

ShardEngine::~ShardEngine() = default;

void ShardEngine::stage(std::size_t src, std::size_t dst, SimTime when,
                        std::size_t wire_bytes,
                        std::unique_ptr<detail::EventFn> fn) {
  if (!running_) {
    // Setup/teardown: single-threaded, no window in flight.
    domains_[dst]->schedule_at(when, [fn = std::move(fn)] { (*fn)(); });
    return;
  }
  if (when < window_end_) {
    throw std::logic_error(
        "ShardEngine::post: handoff at " + format_time(when) +
        " violates the lookahead window ending at " +
        format_time(window_end_) +
        " — a cross-domain link is faster than the declared minimum");
  }
  auto& box = staged_[src * domains_.size() + dst];
  if (box.empty()) dirty_[src].push_back(dst);
  box.push_back({when, static_cast<std::uint32_t>(wire_bytes),
                 std::move(fn)});
}

void ShardEngine::post_control(std::size_t src, std::function<void()> fn) {
  if (!running_) {
    fn();
    return;
  }
  controls_[src].push_back(std::move(fn));
}

void ShardEngine::flush_mailboxes() {
  const std::size_t d = domains_.size();
  for (std::size_t src = 0; src < d; ++src) {
    if (dirty_[src].empty()) continue;
    for (std::size_t dst : dirty_[src]) {
      auto& box = staged_[src * d + dst];
      for (Handoff& h : box) {
        ++stats_.handoffs;
        stats_.handoff_bytes += h.bytes;
        domains_[dst]->schedule_at(h.when,
                                   [fn = std::move(h.fn)] { (*fn)(); });
      }
      box.clear();
    }
    dirty_[src].clear();
  }
}

void ShardEngine::apply_controls() {
  for (auto& queue : controls_) {
    for (auto& fn : queue) {
      ++stats_.control_posts;
      fn();
    }
    queue.clear();
  }
}

void ShardEngine::run_claimed(SimTime until, std::size_t worker,
                              std::size_t workers) {
  // Returns false once a domain has thrown: this worker claims no more.
  const auto claim_and_run = [&](std::uint32_t dom) {
    if (claimed_[dom].exchange(true, std::memory_order_relaxed)) return true;
    try {
      domains_[dom]->run_until(until);
    } catch (...) {
      worker_errors_[worker] = std::current_exception();
      return false;
    }
    return true;
  };
  for (const std::uint32_t dom : active_) {
    if (dom % workers == worker && !claim_and_run(dom)) return;
  }
  // Steal from the back: a domain's home worker walks its domains from
  // the front, so the ones it would reach last go first.
  for (auto it = active_.rbegin(); it != active_.rend(); ++it) {
    if (!claimed_[*it].load(std::memory_order_relaxed) &&
        !claim_and_run(*it)) {
      return;
    }
  }
}

void ShardEngine::worker_loop(std::size_t worker, std::size_t workers) {
  std::uint64_t seen = 0;
  for (;;) {
    SpinWait spin;
    std::uint64_t e;
    while ((e = epoch_.load(std::memory_order_acquire)) == seen) {
      spin.pause();
    }
    if (stop_.load(std::memory_order_relaxed)) return;
    seen = e;
    run_claimed(window_end_ - 1, worker, workers);
    arrived_.fetch_add(1, std::memory_order_release);
  }
}

std::uint64_t ShardEngine::run(const std::function<bool()>& done,
                               SimTime horizon, unsigned threads) {
  const std::size_t d = domains_.size();
  const unsigned workers = static_cast<unsigned>(std::min<std::size_t>(
      std::max(1u, threads), d));
  const std::uint64_t executed_before = executed();

  running_ = true;
  stop_.store(false, std::memory_order_relaxed);
  epoch_.store(0, std::memory_order_relaxed);
  worker_errors_.assign(workers, nullptr);

  std::vector<std::thread> pool;
  pool.reserve(workers > 0 ? workers - 1 : 0);
  for (unsigned w = 1; w < workers; ++w) {
    pool.emplace_back([this, w, workers] { worker_loop(w, workers); });
  }
  const auto join_pool = [&] {
    if (pool.empty()) return;
    stop_.store(true, std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);  // wake to exit
    for (std::thread& t : pool) t.join();
    pool.clear();
  };

  try {
    for (;;) {
      // --- Serial phase (coordinator only, between windows). ---
      flush_mailboxes();
      apply_controls();

      if (done && done()) break;

      SimTime next = kTimeInfinity;
      for (std::size_t i = 0; i < d; ++i) {
        next_at_[i] = domains_[i]->next_event_time();
        next = std::min(next, next_at_[i]);
      }
      if (next == kTimeInfinity || next > horizon) break;

      // Window [next, next + L), clipped so no event beyond `horizon`
      // runs — the same cut run_while() makes in the serial harness.
      window_end_ = next + lookahead_;
      if (horizon != kTimeInfinity && window_end_ > horizon) {
        window_end_ = horizon + 1;
      }

      active_.clear();
      for (std::uint32_t i = 0; i < d; ++i) {
        if (next_at_[i] < window_end_) {
          active_.push_back(i);
          claimed_[i].store(false, std::memory_order_relaxed);
        }
      }
      ++stats_.epochs;

      // --- Parallel phase. ---
      if (pool.empty()) {
        run_claimed(window_end_ - 1, 0, workers);
      } else {
        arrived_.store(0, std::memory_order_relaxed);
        epoch_.fetch_add(1, std::memory_order_release);
        run_claimed(window_end_ - 1, 0, workers);
        SpinWait spin;
        while (arrived_.load(std::memory_order_acquire) != workers - 1) {
          spin.pause();
        }
      }
      for (const std::exception_ptr& err : worker_errors_) {
        if (err) std::rethrow_exception(err);
      }
    }
  } catch (...) {
    join_pool();
    running_ = false;
    throw;
  }

  join_pool();
  running_ = false;
  return executed() - executed_before;
}

std::uint64_t ShardEngine::executed() const {
  std::uint64_t total = 0;
  for (const auto& dom : domains_) total += dom->executed();
  return total;
}

}  // namespace hrmc::sim
