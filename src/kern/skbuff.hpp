// sk_buff analogue — the packet buffer the protocol code is written
// against, mirroring the Linux structure the paper's kernel driver used
// (headroom for layered header push/pull, addressing metadata, and a
// byte-accounted FIFO queue type below it).
//
// Layout mirrors the kernel split between struct sk_buff (the cheap
// per-holder view: data/len offsets plus metadata) and the shared data
// area skb->head points at. A view has exactly one owner: SkBuffPtr is
// a std::unique_ptr, so a second holder of the same bytes must take its
// own view from clone(), which is O(1) — it shares the data block
// exactly like skb_clone() shares skb->head — and copying a SkBuffPtr
// does not compile. Any call that can *write* through the buffer
// (push/put/mutable_bytes) performs the skb_cow() dance first: if the
// block is shared it is copied before the write. pull()/trim() only
// move this view's offsets and never copy, matching skb_pull()/
// skb_trim() on a clone. Those three calls are the only way to write
// (data() is read-only), which is what lets the block memoize a
// verified checksum (checksum_ok()) and a verified stream pattern
// (pattern_memo_hit()) for all of its clones.
//
// Data blocks come from a per-thread free-list pool bucketed by size
// class, and views from one more per-thread free list, so steady-state
// packet traffic recycles both instead of hitting the allocator. Block
// refcounts are deliberately non-atomic: a block never crosses threads
// while shared (each simulation cell — scheduler, topology, sockets —
// lives entirely on one thread; see harness::ParallelRunner, and the
// sharded engine unshares a buffer before it leaves its domain).
#pragma once

#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

namespace hrmc::kern {

class SkBuff;
using SkBuffPtr = std::unique_ptr<SkBuff>;

/// Hot-path counters for this thread's buffer pool. Cheap enough to
/// keep always-on; perfbench reports their deltas across a run as
/// clone/COW rates per delivered packet (`kern.clones_per_pkt`).
struct SkBuffStats {
  std::uint64_t block_allocs = 0;  ///< fresh heap allocations
  std::uint64_t pool_hits = 0;     ///< blocks recycled from the free list
  std::uint64_t clones = 0;        ///< O(1) clone() calls
  std::uint64_t cow_copies = 0;    ///< writes that had to unshare a block
  std::uint64_t csum_bytes = 0;    ///< bytes summed by SkBuff::checksum_ok
  std::uint64_t csum_cached = 0;   ///< checksum_ok calls answered by the memo
  std::uint64_t pattern_cached = 0;  ///< pattern checks answered by the memo
  // Live/peak gauges over *requested* block bytes (acquire adds cap,
  // the final release subtracts it — clones share, so a fan-out of N
  // views counts its block once). Reset zeroes both, so peak_bytes is
  // peak-since-reset like the counters above.
  std::uint64_t live_bytes = 0;  ///< bytes in blocks currently referenced
  std::uint64_t peak_bytes = 0;  ///< high-water mark of live_bytes
};

/// This thread's pool counters (monotone; see skbuff_stats_reset).
[[nodiscard]] const SkBuffStats& skbuff_stats();
void skbuff_stats_reset();

/// Re-baselines peak_bytes to the current live_bytes without touching
/// the monotone counters: run_transfer opens a per-run gauge window so
/// RunResult::skb_peak_bytes means "this run's high-water mark" even
/// when many runs share the thread (bench sweeps).
void skbuff_peak_reset();

/// Blocks currently cached in this thread's free lists.
[[nodiscard]] std::size_t skbuff_pool_cached();

/// Frees every cached block and view (tests; long-lived processes
/// shedding memory).
void skbuff_pool_trim();

namespace detail {

/// The shared data area (skb->head analogue). Allocated with `cap`
/// usable bytes immediately after the header; refcounted by the views
/// that share it and recycled through the per-thread pool when the last
/// reference drops.
struct alignas(std::max_align_t) SkbBlock {
  std::uint32_t refs = 0;
  std::uint32_t klass = 0;   ///< pool size-class index, or kUnpooled
  std::size_t cap = 0;       ///< usable bytes, as requested at alloc time
  SkbBlock* next_free = nullptr;  ///< free-list link while cached
  /// Memo of the last successful checksum check: the view (head offset,
  /// length) that verified. csum_len == 0 means none; acquisition and
  /// every write path clear it (see SkBuff::checksum_ok).
  std::size_t csum_head = 0;
  std::size_t csum_len = 0;
  /// Pattern memo: bytes [pat_head, pat_head + pat_len) matched the
  /// application's stream pattern at stream offset pat_offset onwards.
  /// pat_len == 0 means none; the writers that clear the checksum memo
  /// clear this one too (see SkBuff::pattern_memo_hit).
  std::size_t pat_head = 0;
  std::size_t pat_len = 0;
  std::uint64_t pat_offset = 0;

  [[nodiscard]] std::uint8_t* bytes() {
    return reinterpret_cast<std::uint8_t*>(this + 1);
  }
  [[nodiscard]] const std::uint8_t* bytes() const {
    return reinterpret_cast<const std::uint8_t*>(this + 1);
  }
};

SkbBlock* skb_block_acquire(std::size_t cap);
void skb_block_release(SkbBlock* b);

}  // namespace detail

/// A packet buffer view: offsets into a (possibly shared) data block,
/// with reserved headroom so each protocol layer can push its header
/// without copying the payload.
///
///   [ headroom | data ............ | tailroom ]
///              ^data()             ^data()+size()
class SkBuff final {
 public:
  /// Allocates a buffer able to hold `size` payload bytes plus
  /// `headroom` bytes of reserved space in front.
  static SkBuffPtr alloc(std::size_t size, std::size_t headroom = 64);

  /// O(1) clone (Linux skb_clone): the returned buffer shares this
  /// one's data block and copies the view offsets and metadata. Used at
  /// multicast fan-out points in routers, where it makes duplication
  /// O(receivers) pointer work instead of O(receivers) memcpys. Writes
  /// through either buffer copy-on-write first (see unshare()).
  [[nodiscard]] SkBuffPtr clone() const;

  ~SkBuff() { detail::skb_block_release(block_); }
  SkBuff& operator=(const SkBuff&) = delete;

  /// Views are recycled through a per-thread free list of
  /// sizeof(SkBuff) nodes, so alloc() and clone() in steady state touch
  /// no allocator.
  static void* operator new(std::size_t bytes);
  static void operator delete(void* p) noexcept;

  /// Payload view, read-only: bytes are written only through
  /// mutable_bytes(), push() or put(), which unshare the block and drop
  /// its memos first.
  [[nodiscard]] const std::uint8_t* data() const {
    return block_->bytes() + head_;
  }
  [[nodiscard]] std::size_t size() const { return len_; }
  [[nodiscard]] std::span<const std::uint8_t> bytes() const {
    return {data(), len_};
  }

  /// Writable payload view; copies the data block first if shared.
  /// Write through it before the next checksum_ok() on this block.
  [[nodiscard]] std::span<std::uint8_t> mutable_bytes() {
    prepare_write();
    return {block_->bytes() + head_, len_};
  }

  /// kern::checksum_ok over the visible bytes, memoized on the shared
  /// block (Linux's CHECKSUM_UNNECESSARY): a success is remembered for
  /// this view's (head offset, length), so the clones a router fans out
  /// sum their common block once. Failures are never memoized, and the
  /// memo is cleared whenever the block is acquired or written.
  [[nodiscard]] bool checksum_ok() const;

  /// The pattern memo, the application's twin of the checksum memo:
  /// true if a compare recorded on this block (through any of its views)
  /// covers the first `n` bytes of this view at stream offset `offset`,
  /// that is, the same bytes at the same offset. A hit counts
  /// pattern_cached. The memo is cleared with the checksum memo.
  [[nodiscard]] bool pattern_memo_hit(std::size_t n,
                                      std::uint64_t offset) const;

  /// Records that the first `n` bytes of this view matched the pattern
  /// at stream offset `offset`, replacing the block's previous record.
  /// Call it only after a compare that succeeded.
  void pattern_memo_set(std::size_t n, std::uint64_t offset) const;

  [[nodiscard]] std::size_t headroom() const { return head_; }
  [[nodiscard]] std::size_t tailroom() const {
    return block_->cap - head_ - len_;
  }

  /// True if another view currently shares this buffer's data block.
  [[nodiscard]] bool shared() const { return block_->refs > 1; }

  /// Ensures exclusive ownership of the data block (skb_cow): if it is
  /// shared, the visible bytes are copied into a fresh block at the
  /// same offset, preserving headroom and tailroom.
  void unshare();

  /// Prepends `n` bytes (consumes headroom); returns pointer to the new
  /// front. Copies first if the block is shared — the caller is about
  /// to write a header into space other clones may also cover. Throws
  /// if insufficient headroom — protocol bugs should be loud.
  std::uint8_t* push(std::size_t n);

  /// Removes `n` bytes from the front (e.g. after parsing a header).
  /// View-only: never copies, even on a clone (skb_pull semantics), so
  /// the fan-out receive path stays zero-copy.
  const std::uint8_t* pull(std::size_t n);

  /// Extends the payload by `n` bytes at the tail; returns pointer to
  /// the newly added region. Copies first if the block is shared.
  std::uint8_t* put(std::size_t n);

  /// Truncates the payload to `n` bytes. View-only: never copies.
  void trim(std::size_t n);

  // --- Addressing / metadata (mirrors sk_buff fields the driver used) ---
  std::uint32_t saddr = 0;    ///< source IPv4 address
  std::uint32_t daddr = 0;    ///< destination IPv4 address (may be mcast)
  std::uint8_t protocol = 0;  ///< transport protocol id
  std::uint8_t ttl = 64;      ///< forwarding budget

  /// Total on-wire size used by links/queues for serialization and byte
  /// accounting: payload plus the simulated lower-layer (IP + MAC) framing.
  [[nodiscard]] std::size_t wire_size() const {
    return len_ + kLowerLayerBytes;
  }

  /// Bytes the simulation charges for IP + Ethernet framing per packet.
  static constexpr std::size_t kLowerLayerBytes = 38;

 private:
  /// Every write path starts here: copy a shared block (skb_cow) and
  /// drop both memos of the block about to be written.
  void prepare_write() {
    unshare();
    block_->csum_len = 0;
    block_->pat_len = 0;
  }

  SkBuff(detail::SkbBlock* block, std::size_t headroom)
      : block_(block), head_(headroom), len_(0) {}
  /// The clone: shares the block, so only clone() may call it.
  SkBuff(const SkBuff& o)
      : saddr(o.saddr), daddr(o.daddr), protocol(o.protocol), ttl(o.ttl),
        block_(o.block_), head_(o.head_), len_(o.len_) {
    ++block_->refs;
  }

  detail::SkbBlock* block_;
  std::size_t head_;
  std::size_t len_;
};

/// sk_buff_head analogue: FIFO queue of buffers with O(1) byte accounting,
/// used for the receivers' in-order receive queues.
class SkBuffQueue {
 public:
  void push_back(SkBuffPtr skb);

  /// Pops the front buffer; returns nullptr if empty.
  SkBuffPtr pop_front();

  /// Removes `n` bytes from the front of the front buffer (a partial
  /// read) and from the byte count; the queue must not be empty.
  void pull_front(std::size_t n);

  [[nodiscard]] const SkBuffPtr& front() const { return items_.front(); }
  [[nodiscard]] bool empty() const { return items_.empty(); }
  [[nodiscard]] std::size_t packets() const { return items_.size(); }

  /// Payload bytes queued (header bytes included; framing not counted) —
  /// this is the figure checked against sndbuf/rcvbuf limits, as the
  /// kernel checks sk->wmem_alloc.
  [[nodiscard]] std::size_t bytes() const { return bytes_; }

  void clear();

 private:
  std::deque<SkBuffPtr> items_;
  std::size_t bytes_ = 0;
};

}  // namespace hrmc::kern
