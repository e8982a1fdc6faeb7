// Application processes that drive the protocol endpoints: the
// memory-to-memory and disk-to-disk file-transfer apps of §5.1.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "app/disk.hpp"
#include "app/pattern.hpp"
#include "hrmc/receiver.hpp"
#include "hrmc/sender.hpp"
#include "sim/scheduler.hpp"

namespace hrmc::app {

/// Sending application: pushes `total_bytes` of pattern data through an
/// HrmcSender, then closes the stream. With a DiskModel attached, each
/// chunk is "read from disk" (a modelled delay) before it is offered to
/// the socket — the disk-to-disk test. Without one, data is offered as
/// fast as the socket accepts it — the memory-to-memory test.
class SourceApp {
 public:
  struct Options {
    std::uint64_t total_bytes = 10 * 1024 * 1024;
    std::size_t chunk = 64 * 1024;
    std::optional<DiskConfig> disk;
    std::uint64_t seed = 1;
  };

  SourceApp(proto::HrmcSender& sock, sim::Scheduler& sched, Options opt);

  /// Begins the transfer.
  void start();

  [[nodiscard]] bool done() const { return closed_; }

  /// Disk-jitter RNG end-state (a fixed constant when no disk is
  /// attached, so memory-to-memory digests stay comparable).
  [[nodiscard]] std::uint64_t rng_digest() const {
    return disk_ ? disk_->rng_digest() : 0x5ca1ab1eULL;
  }

 private:
  void pump();          ///< offer pending chunk bytes to the socket
  void fetch_chunk();   ///< model the disk read, then pump

  proto::HrmcSender& sock_;
  sim::Scheduler& sched_;
  Options opt_;
  std::optional<DiskModel> disk_;

  std::vector<std::uint8_t> chunk_buf_;
  std::size_t chunk_len_ = 0;   ///< bytes in chunk_buf_
  std::size_t chunk_off_ = 0;   ///< bytes of chunk_buf_ already accepted
  std::uint64_t offered_ = 0;   ///< stream bytes accepted by the socket
  bool fetching_ = false;
  bool closed_ = false;
};

/// Receiving application: drains an HrmcReceiver, verifying the pattern.
/// `read_rate_bps` caps how fast the application consumes (0 = unlimited)
/// — the paper's observation that the application read rate does not
/// scale with network speed is what produces the extra rate requests on
/// the 100 Mbps network (§5.2, Fig 16b). A DiskModel models disk writes.
class SinkApp {
 public:
  struct Options {
    std::size_t chunk = 64 * 1024;
    double read_rate_bps = 0.0;  ///< 0 = application always ready
    std::optional<DiskConfig> disk;
    bool verify = true;
    std::uint64_t seed = 2;
  };

  SinkApp(proto::HrmcReceiver& sock, sim::Scheduler& sched, Options opt);

  /// True when the entire stream arrived at the protocol layer
  /// (independent of application consumption).
  [[nodiscard]] bool stream_complete() const { return complete_at_ >= 0; }
  [[nodiscard]] sim::SimTime complete_at() const { return complete_at_; }

  /// Called once, when stream_complete() turns true. A receiver that
  /// restarts may report completion again; that moves complete_at() but
  /// does not call this a second time.
  std::function<void()> on_stream_complete;

  /// True once the application consumed the whole stream (EOF).
  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] sim::SimTime finished_at() const { return finished_at_; }

  [[nodiscard]] std::uint64_t bytes_read() const { return offset_; }
  [[nodiscard]] bool verify_failed() const { return verify_failed_; }

  /// Disk-jitter RNG end-state (constant when no disk is attached).
  [[nodiscard]] std::uint64_t rng_digest() const {
    return disk_ ? disk_->rng_digest() : 0x5ca1ab1eULL;
  }

 private:
  void maybe_read();
  void do_read();

  proto::HrmcReceiver& sock_;
  sim::Scheduler& sched_;
  Options opt_;
  std::optional<DiskModel> disk_;

  std::vector<std::uint8_t> buf_;
  std::uint64_t offset_ = 0;
  bool reading_ = false;
  bool finished_ = false;
  bool verify_failed_ = false;
  sim::SimTime complete_at_ = -1;
  sim::SimTime finished_at_ = -1;
};

}  // namespace hrmc::app
