// Modeled receiver population (million-receiver scaling extension).
//
// A single transport that stands in for N leaf receivers behind one
// router subtree, simulated *statistically* instead of as N event
// actors: per arriving DATA packet one binomial draw decides how many
// of the N leaves lost it independently (leaf loss rate p), and the
// population's feedback collapses to what a subtree repairer would emit
// anyway. Independent tail loss never leaves the subtree — the packet
// reached the subtree head, so the implicit local repairer holds it in
// cache and serves the missing leaves after one local repair round trip
// (counted as repairs_served / naks_suppressed). Only *shared-path*
// loss, where the subtree itself never saw the bytes, NAKs upstream —
// one NAK per missing range — and steady-state reporting is one
// AGG_UPDATE carrying (population minimum, N). This is what makes a
// 10^6-member simulation runnable: event count scales with packets and
// subtrees, not with members.
//
// Fidelity limits (by design — see DESIGN.md §13): leaves inside one
// population share the simulated network path (only their *independent*
// tail loss is modeled), have no individual flow control or receive
// buffers, and cannot crash individually. Scenarios that need those
// behaviors use real receivers, possibly alongside modeled populations.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "hrmc/config.hpp"
#include "hrmc/fec.hpp"
#include "hrmc/stats.hpp"
#include "hrmc/wire.hpp"
#include "kern/timer.hpp"
#include "net/host.hpp"
#include "sim/random.hpp"
#include "trace/trace.hpp"

namespace hrmc::proto {

/// First 53-bit draw k (u = k·2^-53, as sim::Rng::next_double) from
/// which the geometric skip floor(log1p(-u) / log1mp) is at least n, so
/// a binomial draw over n leaves that starts with it counts no loss.
/// It lies a relative 1e-9 above the exact bound, far beyond libm's
/// error, so the libm path agrees at every k from it on.
[[nodiscard]] std::uint64_t no_loss_draw_bound(std::uint64_t n, double log1mp);

class ModeledReceiver final : public net::Transport {
 public:
  /// `population` leaves, each independently losing any given packet
  /// with probability `leaf_loss` (on top of whatever the simulated
  /// network already dropped on the shared path).
  ModeledReceiver(net::Host& host, const Config& cfg, net::Endpoint group,
                  std::uint32_t population, double leaf_loss,
                  net::Addr sender_hint = 0);
  ~ModeledReceiver() override;

  ModeledReceiver(const ModeledReceiver&) = delete;
  ModeledReceiver& operator=(const ModeledReceiver&) = delete;

  void open();
  void stop();

  /// Every leaf of the population holds the complete stream (FIN seen,
  /// no outstanding holes).
  [[nodiscard]] bool complete() const;

  [[nodiscard]] const ReceiverStats& stats() const { return stats_; }
  [[nodiscard]] std::uint32_t population() const { return population_; }
  /// Smallest next_expected over the modeled leaves.
  [[nodiscard]] kern::Seq population_min() const;
  [[nodiscard]] bool joined() const { return joined_; }

  void set_trace(trace::TraceSink sink) { trace_ = sink; }
  std::function<void()> on_complete;

  /// Folded end-state of the leaf-loss RNG — part of
  /// RunResult::rng_digest.
  [[nodiscard]] std::uint64_t rng_digest() const { return rng_.digest(); }

  // net::Transport
  void rx(kern::SkBuffPtr skb) override;

 private:
  /// A range of bytes some leaves are still missing. `shared` = the
  /// subtree head itself never received the bytes (shared-path loss), so
  /// repair needs the sender; a tail-loss hole (!shared) is served by
  /// the subtree's implicit local repairer at `repair_at` instead.
  struct Hole {
    kern::Seq begin = 0;
    kern::Seq end = 0;
    std::uint32_t leaves_missing = 0;
    bool shared = true;
    sim::SimTime repair_at = -1;
    sim::SimTime last_nak = -1;
    int sends = 0;
  };

  void process_data(const Header& h);
  void process_fec(const Header& h);
  void process_probe(const Header& h);
  void process_keepalive(const Header& h);
  /// Probability that a leaf which lost one packet of a parity group
  /// cannot decode it locally: >= r of the group's other k-1 packets
  /// were also lost on its tail (r = the sender's observed parity
  /// budget). Parity-packet tail loss is second-order and ignored.
  [[nodiscard]] double fec_unrepaired_prob() const;
  void note_tail(kern::Seq upto);
  /// Binomial(n, p) draw: how many of n leaves lose one packet.
  std::uint32_t draw_losses(std::uint64_t n, double p);
  void send_join();
  void send_aggregate(bool solicited);
  void nak_timer_fire();
  void update_timer_fire();
  void emit(PacketType type, kern::Seq seq, std::uint32_t rate,
            std::uint32_t length, bool urg = false);
  void maybe_complete();
  [[nodiscard]] sim::SimTime nak_interval() const;

  net::Host& host_;
  Config cfg_;
  net::Endpoint group_;
  net::Addr sender_addr_ = 0;
  std::uint32_t population_;
  double leaf_loss_;
  double leaf_log1mp_;  ///< log1p(-leaf_loss_), taken once for draw_losses
  /// no_loss_draw_bound(population_, leaf_log1mp_): a population draw
  /// whose first 53 bits reach it returns 0 without a libm call.
  std::uint64_t no_loss_draw_;

  bool started_ = false;      ///< first DATA seen; baseline anchored
  bool joined_ = false;
  bool join_sent_ = false;
  sim::SimTime join_sent_at_ = 0;
  kern::Seq baseline_ = 0;    ///< position of the first packet seen
  kern::Seq rcv_high_ = 0;    ///< one past the highest byte seen
  std::optional<kern::Seq> fin_seq_;
  bool complete_reported_ = false;

  std::vector<Hole> holes_;   ///< sorted by begin; non-overlapping

  // FEC modeling state: the sender's parity budget as observed on the
  // wire (max row index + 1 of the current group's parities), and a
  // per-group decode-failure dedupe mirroring HrmcReceiver's.
  std::size_t fec_budget_ = 0;
  kern::Seq fec_group_begin_ = 0;
  bool fec_group_valid_ = false;
  kern::Seq fec_fail_group_ = 0;
  bool fec_fail_noted_ = false;

  ReceiverStats stats_;
  trace::TraceSink trace_;
  sim::Rng rng_;
  kern::TimerList nak_timer_;
  kern::TimerList update_timer_;
};

}  // namespace hrmc::proto
