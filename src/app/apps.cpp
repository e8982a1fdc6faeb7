#include "app/apps.hpp"

#include <algorithm>

namespace hrmc::app {

// --------------------------------------------------------------------
// SourceApp
// --------------------------------------------------------------------

SourceApp::SourceApp(proto::HrmcSender& sock, sim::Scheduler& sched,
                     Options opt)
    : sock_(sock), sched_(sched), opt_(opt) {
  if (opt_.disk) {
    disk_.emplace(*opt_.disk, sim::substream_seed(opt_.seed, "source-disk"));
  }
  chunk_buf_.resize(opt_.chunk);
  sock_.on_writable = [this] { pump(); };
}

void SourceApp::start() { fetch_chunk(); }

void SourceApp::fetch_chunk() {
  if (closed_ || fetching_) return;
  if (offered_ >= opt_.total_bytes && chunk_off_ >= chunk_len_) {
    sock_.close();
    closed_ = true;
    return;
  }
  if (chunk_off_ < chunk_len_) {
    pump();  // previous chunk not fully accepted yet
    return;
  }
  const std::uint64_t remaining = opt_.total_bytes - offered_;
  chunk_len_ = static_cast<std::size_t>(
      std::min<std::uint64_t>(remaining, opt_.chunk));
  chunk_off_ = 0;
  pattern_fill(std::span(chunk_buf_.data(), chunk_len_), offered_);

  if (disk_) {
    fetching_ = true;
    sched_.schedule_after(disk_->io_time(chunk_len_), [this] {
      fetching_ = false;
      pump();
    });
  } else {
    pump();
  }
}

void SourceApp::pump() {
  if (closed_ || fetching_) return;
  while (chunk_off_ < chunk_len_) {
    const std::size_t n = sock_.send(std::span<const std::uint8_t>(
        chunk_buf_.data() + chunk_off_, chunk_len_ - chunk_off_));
    if (n == 0) return;  // send buffer full; on_writable resumes us
    chunk_off_ += n;
    offered_ += n;
  }
  fetch_chunk();
}

// --------------------------------------------------------------------
// SinkApp
// --------------------------------------------------------------------

SinkApp::SinkApp(proto::HrmcReceiver& sock, sim::Scheduler& sched,
                 Options opt)
    : sock_(sock), sched_(sched), opt_(opt) {
  if (opt_.disk) {
    disk_.emplace(*opt_.disk, sim::substream_seed(opt_.seed, "sink-disk"));
  }
  buf_.resize(opt_.chunk);
  sock_.on_readable = [this] { maybe_read(); };
  sock_.on_complete = [this] {
    if (complete_at_ < 0 && on_stream_complete) on_stream_complete();
    complete_at_ = sched_.now();
    maybe_read();
  };
}

void SinkApp::maybe_read() {
  if (reading_ || finished_) return;
  reading_ = true;
  do_read();
}

void SinkApp::do_read() {
  const std::size_t n = sock_.recv(std::span(buf_.data(), buf_.size()));
  if (n > 0) {
    if (opt_.verify) {
      const std::size_t ok =
          pattern_verify(std::span<const std::uint8_t>(buf_.data(), n),
                         offset_);
      // A stream that skipped bytes (RMC NAK_ERR) is expected to fail
      // verification; don't double-report in that case.
      if (ok != n && !sock_.stream_error()) verify_failed_ = true;
    }
    offset_ += n;

    // Model the cost of consuming these bytes (app read rate and/or disk
    // write), then continue reading.
    sim::SimTime delay = 0;
    if (disk_) delay += disk_->io_time(n);
    if (opt_.read_rate_bps > 0.0) {
      delay += sim::from_seconds(static_cast<double>(n) * 8.0 /
                                 opt_.read_rate_bps);
    }
    if (delay > 0) {
      sched_.schedule_after(delay, [this] { do_read(); });
    } else {
      // Always-ready application: loop synchronously.
      do_read();
    }
    return;
  }

  reading_ = false;
  if (sock_.eof()) {
    finished_ = true;
    finished_at_ = sched_.now();
  }
}

}  // namespace hrmc::app
