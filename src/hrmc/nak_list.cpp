#include "hrmc/nak_list.hpp"

#include <algorithm>

namespace hrmc::proto {

using kern::Seq;
using kern::seq_after;
using kern::seq_before;
using kern::seq_before_eq;
using kern::seq_max;
using kern::seq_min;

std::vector<NakRange> NakList::add_gap(Seq from, Seq to, sim::SimTime now) {
  std::vector<NakRange> fresh;
  if (!seq_before(from, to)) return fresh;

  // Walk existing ranges, emitting the parts of [from, to) not already
  // tracked. Existing ranges keep their suppression state.
  Seq cursor = from;
  std::vector<NakRange> merged;
  merged.reserve(ranges_.size() + 2);
  for (const NakRange& r : ranges_) {
    if (seq_before(cursor, to) && seq_before(cursor, r.from)) {
      const Seq piece_end = seq_min(to, r.from);
      if (seq_before(cursor, piece_end)) {
        fresh.push_back(NakRange{cursor, piece_end, now, 1});
      }
    }
    if (seq_before(cursor, r.to)) cursor = seq_max(cursor, r.to);
    merged.push_back(r);
  }
  if (seq_before(cursor, to)) {
    fresh.push_back(NakRange{cursor, to, now, 1});
  }
  if (fresh.empty()) return fresh;

  // Insert the fresh pieces and restore sorted order.
  for (const NakRange& r : fresh) merged.push_back(r);
  std::sort(merged.begin(), merged.end(),
            [](const NakRange& a, const NakRange& b) {
              return seq_before(a.from, b.from);
            });
  ranges_ = std::move(merged);
  return fresh;
}

void NakList::fill(Seq from, Seq to) {
  // Nothing pending, the common case for in-order data: return before
  // building a vector.
  if (ranges_.empty() || !seq_before(from, to)) return;
  std::vector<NakRange> out;
  out.reserve(ranges_.size() + 1);
  for (const NakRange& r : ranges_) {
    // No overlap: keep whole.
    if (seq_before_eq(r.to, from) || seq_before_eq(to, r.from)) {
      out.push_back(r);
      continue;
    }
    // Left remainder.
    if (seq_before(r.from, from)) {
      NakRange left = r;
      left.to = from;
      out.push_back(left);
    }
    // Right remainder.
    if (seq_before(to, r.to)) {
      NakRange right = r;
      right.from = to;
      out.push_back(right);
    }
  }
  ranges_ = std::move(out);
}

void NakList::ack_through(Seq seq) {
  std::vector<NakRange> out;
  out.reserve(ranges_.size());
  for (const NakRange& r : ranges_) {
    if (seq_before_eq(r.to, seq)) continue;  // fully satisfied
    NakRange keep = r;
    if (seq_before(keep.from, seq)) keep.from = seq;
    out.push_back(keep);
  }
  ranges_ = std::move(out);
}

std::size_t NakList::defer(Seq from, Seq to, sim::SimTime until) {
  std::size_t deferred = 0;
  for (NakRange& r : ranges_) {
    if (seq_before_eq(r.to, from) || seq_before_eq(to, r.from)) continue;
    if (until > r.not_before) r.not_before = until;
    ++deferred;
  }
  return deferred;
}

void NakList::defer_unsent(Seq from, Seq to, sim::SimTime until) {
  for (NakRange& r : ranges_) {
    if (seq_before_eq(r.to, from) || seq_before_eq(to, r.from)) continue;
    r.sends = 0;
    r.last_sent = 0;
    if (until > r.not_before) r.not_before = until;
  }
}

namespace {

sim::SimTime range_ready_at(const NakRange& r, sim::SimTime interval) {
  // An unsent (backoff-deferred) range is due exactly at its deferral
  // deadline; a sent one waits out the re-send interval as well.
  if (r.sends == 0) return r.not_before;
  return std::max(r.last_sent + interval, r.not_before);
}

}  // namespace

std::vector<NakRange> NakList::due(sim::SimTime now, sim::SimTime interval) {
  std::vector<NakRange> result;
  for (NakRange& r : ranges_) {
    if (now >= range_ready_at(r, interval)) {
      r.last_sent = now;
      ++r.sends;
      result.push_back(r);
    }
  }
  return result;
}

sim::SimTime NakList::next_due(sim::SimTime interval) const {
  sim::SimTime earliest = sim::kTimeInfinity;
  for (const NakRange& r : ranges_) {
    earliest = std::min(earliest, range_ready_at(r, interval));
  }
  return earliest;
}

}  // namespace hrmc::proto
