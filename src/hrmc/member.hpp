// Group-membership state at the sender.
//
// The paper (§3, "Membership Maintenance"): membership is kept "in the
// form of a doubly linked list as well as a hashed list of all the
// receivers", and per receiver the sender stores only the unicast IP
// address and the next sequence number that receiver is expecting —
// refreshed by every NAK, rate request, and UPDATE that arrives. We keep
// the same structure: an intrusive doubly-linked list threading all
// members (for full scans at buffer-release time) plus hash chaining by
// address (for O(1) feedback processing).
//
// Million-receiver extension: the table is additionally *sharded by
// subtree* (the /16 prefix of the member address, which the simulated
// topology assigns per router subtree). Each shard keeps its own cached
// (min next_expected, multiplicity) pair, so the release-safety minimum
// is the min over at most kShardCount shard caches — O(shards), never
// O(members) — and a departure storm invalidates only the shards it
// touches. Members also carry a `multiplicity`: an aggregated record
// (a local repairer or a modeled receiver population) counts as that
// many leaves without that many table entries.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "kern/seq.hpp"
#include "net/addr.hpp"
#include "sim/time.hpp"

namespace hrmc::proto {

/// Per-receiver record (struct mc_member in the driver).
struct McMember {
  net::Addr addr = 0;
  /// Next byte this receiver expects, as most recently reported. The
  /// sender knows the receiver holds everything before this. Mutate
  /// only through MemberTable::advance() / set_position() — the table
  /// keeps cached per-shard minima over this field that direct writes
  /// would corrupt.
  kern::Seq next_expected = 0;
  /// Leaves this record stands for: 1 for an ordinary receiver, >1 for
  /// an aggregating repairer or modeled population. next_expected is
  /// then the *minimum* over the represented leaves.
  std::uint32_t multiplicity = 1;
  sim::SimTime last_heard = 0;
  /// Last time a PROBE was unicast to this member (probe pacing).
  sim::SimTime last_probed = -1;
  /// True while a probe is outstanding (sent, not yet answered). This is
  /// the authoritative "probe in flight" flag: probe_seq == 0 is a valid
  /// gate position once the stream wraps, so it cannot double as one.
  bool probe_pending = false;
  /// Sequence the outstanding probe asked about (meaningful only while
  /// probe_pending).
  kern::Seq probe_seq = 0;
  /// Consecutive probes re-sent without any answer; resets to 0 the
  /// moment the outstanding probe is answered. Reaching
  /// Config::max_probe_retries declares the member dead.
  int probe_retries = 0;

  // Intrusive links.
  McMember* next = nullptr;        ///< doubly linked list of all members
  McMember* prev = nullptr;
  McMember* hash_next = nullptr;   ///< hash chain
  McMember* shard_next = nullptr;  ///< per-subtree shard list
  McMember* shard_prev = nullptr;
  std::uint8_t shard = 0;          ///< owning shard index
};

/// RMC_HTABLE_SIZE in the driver.
inline constexpr std::size_t kHashTableSize = 64;

/// Subtree shards for the release-minimum cache. 64 keeps the release
/// check a fixed small scan while still separating the topology's
/// per-group /16 subtrees (hash-distributed, so unrelated subtrees only
/// share a shard incidentally).
inline constexpr std::size_t kShardCount = 64;

class MemberTable {
 public:
  MemberTable() = default;
  ~MemberTable();
  MemberTable(const MemberTable&) = delete;
  MemberTable& operator=(const MemberTable&) = delete;

  /// Adds a member (add_member in the driver). Returns the record; if the
  /// address is already present, returns the existing record untouched.
  McMember* add(net::Addr addr, kern::Seq initial_expected);

  /// Removes a member (rm_member). Returns true if it was present.
  bool remove(net::Addr addr);

  /// O(1) lookup by receiver address.
  [[nodiscard]] McMember* find(net::Addr addr);
  [[nodiscard]] const McMember* find(net::Addr addr) const;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Leaves represented: Σ multiplicity over all records.
  [[nodiscard]] std::uint64_t total_weight() const { return total_weight_; }

  /// Visits every member in list order; the visitor may not add/remove.
  void for_each(const std::function<void(McMember&)>& fn);
  void for_each(const std::function<void(const McMember&)>& fn) const;

  /// Raises `m->next_expected` to `reported` (monotonic: a stale or
  /// equal report is a no-op). Returns true if it advanced.
  bool advance(McMember* m, kern::Seq reported);

  /// Moves `m->next_expected` to `seq` in either direction, keeping the
  /// shard cache coherent. Regression is legitimate only for aggregated
  /// records: a repairer's subtree minimum drops when a laggard child
  /// registers under it. Returns true if the position changed.
  bool set_position(McMember* m, kern::Seq seq);

  /// Updates the leaf count an aggregated record stands for.
  void set_multiplicity(McMember* m, std::uint32_t multiplicity);

  /// Smallest next_expected over all members, i.e. the stream position
  /// the slowest (as far as the sender knows) receiver has reached.
  /// Returns `fallback` when the table is empty. O(shards) per query:
  /// each shard serves its cached (min, count) pair; a shard rescans
  /// only when the last member *at* its minimum advances or leaves —
  /// i.e. when that subtree's slowest receiver moves, not per query.
  [[nodiscard]] kern::Seq min_next_expected(kern::Seq fallback) const;

  /// True if every member is known to have received all bytes before
  /// `seq` (the release-safety predicate of §3, "Probe Messages").
  [[nodiscard]] bool all_have(kern::Seq seq) const;

  /// Shard rescans taken / members visited by them, for the sublinearity
  /// bound in tests: rescan_work stays O(members + advances), far below
  /// the O(members * packets) of the uncached scan.
  [[nodiscard]] std::uint64_t min_rescans() const { return min_rescans_; }
  [[nodiscard]] std::uint64_t min_rescan_work() const {
    return min_rescan_work_;
  }

  /// Bumped by every add/remove; lets callers cache membership-derived
  /// sets (the sender's lacking list) and rebuild only on change.
  [[nodiscard]] std::uint64_t version() const { return version_; }

  /// Subtree shard an address lands in (public for tests/benches).
  static std::size_t shard_of(net::Addr addr) {
    // The /16 prefix is the router subtree in the simulated topology;
    // Knuth multiplicative hash spreads prefixes over the shards.
    return (static_cast<std::uint32_t>(addr >> 16) * 2654435761u) >> 26 &
           (kShardCount - 1);
  }

 private:
  struct Shard {
    McMember* head = nullptr;
    std::size_t size = 0;
    // Cached minimum: valid means cached_min is the exact shard minimum
    // and min_count members of this shard currently sit at it.
    mutable kern::Seq cached_min = 0;
    mutable std::size_t min_count = 0;
    mutable bool min_valid = false;
  };

  static std::size_t bucket(net::Addr addr) {
    // Knuth multiplicative hash; low bits of addr are the host number.
    return (addr * 2654435761u) >> 26 & (kHashTableSize - 1);
  }

  void rescan_shard(const Shard& s) const;

  McMember* head_ = nullptr;  ///< doubly linked list of all members
  McMember* hash_[kHashTableSize] = {};
  Shard shards_[kShardCount];
  std::size_t size_ = 0;
  std::uint64_t total_weight_ = 0;
  std::uint64_t version_ = 0;

  mutable std::uint64_t min_rescans_ = 0;
  mutable std::uint64_t min_rescan_work_ = 0;
};

}  // namespace hrmc::proto
