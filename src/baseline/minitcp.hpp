// Minimal TCP-like unicast reliable stream ("mini-TCP").
//
// The paper's conclusions compare H-RMC's throughput to TCP's. This
// baseline provides a like-for-like comparator over the same simulated
// hosts and network: cumulative ACKs, a congestion window with slow
// start / congestion avoidance, fast retransmit on triple duplicate
// ACKs, and an RTO with exponential backoff. It reuses the H-RMC header
// codec (DATA segments; UPDATE packets double as cumulative ACKs) and
// registers under IP protocol 6.
#pragma once

#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "hrmc/rtt.hpp"
#include "hrmc/wire.hpp"
#include "kern/timer.hpp"
#include "net/host.hpp"

namespace hrmc::baseline {

inline constexpr std::uint8_t kIpProtoMiniTcp = 6;

struct MiniTcpConfig {
  std::size_t sndbuf = 256 * 1024;
  std::size_t rcvbuf = 256 * 1024;
  std::size_t mss = 1460;
  static constexpr kern::Seq kInitialSeq = 1;
  /// First sequence number of the stream. Both ends must agree (there
  /// is no SYN exchange). Tests set this near 2^32 to exercise the
  /// modular-arithmetic paths across the sequence wrap.
  kern::Seq initial_seq = kInitialSeq;
};

struct MiniTcpStats {
  std::uint64_t data_packets_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t fast_retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t bytes_delivered = 0;
};

class MiniTcpSender final : public net::Transport {
 public:
  MiniTcpSender(net::Host& host, const MiniTcpConfig& cfg,
                net::Port local_port, net::Endpoint peer);
  ~MiniTcpSender() override;

  std::size_t send(std::span<const std::uint8_t> data);
  void close();
  [[nodiscard]] bool finished() const {
    return fin_closed_ && segments_.empty();
  }
  [[nodiscard]] std::size_t free_space() const {
    return cfg_.sndbuf - queued_bytes_;
  }

  std::function<void()> on_writable;
  std::function<void()> on_finished;

  [[nodiscard]] const MiniTcpStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t cwnd() const { return cwnd_; }

  void rx(kern::SkBuffPtr skb) override;
  void stop();

 private:
  struct Segment {
    kern::Seq seq_begin = 0;
    kern::Seq seq_end = 0;
    kern::SkBuffPtr payload;
    sim::SimTime last_sent = 0;
    std::uint8_t tries = 0;
    bool sent = false;
    bool fin = false;
  };

  void pump();
  void transmit(Segment& seg);
  void on_ack(kern::Seq ack, bool fin_echo);
  void rto_fire();
  void arm_rto();

  net::Host& host_;
  MiniTcpConfig cfg_;
  net::Port local_port_;
  net::Endpoint peer_;

  std::deque<Segment> segments_;
  std::size_t first_unsent_ = 0;
  std::size_t queued_bytes_ = 0;
  kern::Seq snd_una_ = MiniTcpConfig::kInitialSeq;
  kern::Seq snd_nxt_ = MiniTcpConfig::kInitialSeq;
  bool fin_closed_ = false;
  bool finished_reported_ = false;

  std::size_t cwnd_;
  std::size_t ssthresh_;
  int dupacks_ = 0;

  proto::RttEstimator rtt_;
  sim::SimTime rto_backoff_factor_ = 1;
  kern::TimerList rto_timer_;
  MiniTcpStats stats_;
};

class MiniTcpReceiver final : public net::Transport {
 public:
  MiniTcpReceiver(net::Host& host, const MiniTcpConfig& cfg,
                  net::Port local_port);
  ~MiniTcpReceiver() override;

  std::size_t recv(std::span<std::uint8_t> out);
  [[nodiscard]] std::size_t available() const {
    return receive_queue_.bytes();
  }
  [[nodiscard]] bool complete() const {
    return fin_seq_.has_value() && rcv_nxt_ == *fin_seq_;
  }
  [[nodiscard]] bool eof() const { return complete() && available() == 0; }

  std::function<void()> on_readable;
  std::function<void()> on_complete;

  [[nodiscard]] const MiniTcpStats& stats() const { return stats_; }
  [[nodiscard]] kern::Seq rcv_nxt() const { return rcv_nxt_; }

  void rx(kern::SkBuffPtr skb) override;

 private:
  struct OooSeg {
    kern::Seq begin = 0;
    kern::Seq end = 0;
    kern::SkBuffPtr skb;
  };

  void send_ack();

  net::Host& host_;
  MiniTcpConfig cfg_;
  net::Port local_port_;
  net::Endpoint peer_{};  // learned from the first segment

  kern::Seq rcv_nxt_ = MiniTcpConfig::kInitialSeq;
  kern::SkBuffQueue receive_queue_;
  std::vector<OooSeg> out_of_order_;
  std::size_t ooo_bytes_ = 0;
  std::optional<kern::Seq> fin_seq_;
  bool complete_reported_ = false;
  MiniTcpStats stats_;
};

}  // namespace hrmc::baseline
