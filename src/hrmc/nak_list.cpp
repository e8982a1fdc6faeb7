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

  // Walk existing ranges, collecting the parts of [from, to) not already
  // tracked. Existing ranges keep their suppression state.
  Seq cursor = from;
  for (const NakRange& r : ranges_) {
    if (seq_before(cursor, to) && seq_before(cursor, r.from)) {
      const Seq piece_end = seq_min(to, r.from);
      if (seq_before(cursor, piece_end)) {
        fresh.push_back(NakRange{cursor, piece_end, now, 1});
      }
    }
    if (seq_before(cursor, r.to)) cursor = seq_max(cursor, r.to);
  }
  if (seq_before(cursor, to)) {
    fresh.push_back(NakRange{cursor, to, now, 1});
  }

  // Insert the fresh pieces (ascending, each in a gap between existing
  // ranges) at their sorted places.
  auto at = ranges_.begin();
  for (const NakRange& r : fresh) {
    while (at != ranges_.end() && seq_before(at->from, r.from)) ++at;
    at = ranges_.insert(at, r) + 1;
  }
  return fresh;
}

void NakList::fill(Seq from, Seq to) {
  if (!seq_before(from, to)) return;
  for (auto it = ranges_.begin(); it != ranges_.end();) {
    // No overlap: keep whole.
    if (seq_before_eq(it->to, from) || seq_before_eq(to, it->from)) {
      ++it;
      continue;
    }
    const bool left = seq_before(it->from, from);  // left remainder
    const bool right = seq_before(to, it->to);     // right remainder
    if (left && right) {
      NakRange tail = *it;
      tail.from = to;
      it->to = from;
      it = ranges_.insert(it + 1, tail) + 1;
    } else if (left) {
      it->to = from;
      ++it;
    } else if (right) {
      it->from = to;
      ++it;
    } else {
      it = ranges_.erase(it);
    }
  }
}

void NakList::ack_through(Seq seq) {
  std::erase_if(ranges_,
                [seq](const NakRange& r) { return seq_before_eq(r.to, seq); });
  for (NakRange& r : ranges_) {
    if (seq_before(r.from, seq)) r.from = seq;
  }
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
