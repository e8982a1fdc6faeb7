#include "kern/skbuff.hpp"

#include <new>

#include "kern/checksum.hpp"

namespace hrmc::kern {

namespace {

// Pool size classes. Data traffic allocates MSS (1460) + headroom → the
// 2048 class; control packets (headers + a few options) land in 256.
// Requests above the largest class bypass the pool entirely.
constexpr std::size_t kClassSizes[] = {256, 512, 1024, 2048, 4096};
constexpr std::uint32_t kNumClasses =
    static_cast<std::uint32_t>(std::size(kClassSizes));
constexpr std::uint32_t kUnpooled = 0xffffffffu;

// Cap on cached blocks per class: bounds pool memory at
// ~(256+...+4096)*512 ≈ 4 MiB per thread while still absorbing the
// largest queue swings the sweeps produce.
constexpr std::size_t kMaxCachedPerClass = 512;

std::uint32_t class_for(std::size_t cap) {
  for (std::uint32_t k = 0; k < kNumClasses; ++k) {
    if (cap <= kClassSizes[k]) return k;
  }
  return kUnpooled;
}

detail::SkbBlock* raw_block_new(std::size_t byte_cap) {
  void* mem = ::operator new(sizeof(detail::SkbBlock) + byte_cap);
  return new (mem) detail::SkbBlock{};
}

void raw_block_delete(detail::SkbBlock* b) {
  b->~SkbBlock();
  ::operator delete(b);
}

// Cap on cached views per thread: 1024 sizeof(SkBuff) nodes, 40 KiB.
constexpr std::size_t kMaxCachedViews = 1024;

// One pool per thread: simulation cells are single-threaded, so the
// free lists (and the block refcounts) need no synchronization, and
// parallel bench cells cannot perturb each other's recycling order.
struct Pool {
  detail::SkbBlock* free_head[kNumClasses] = {};
  std::size_t cached_count[kNumClasses] = {};
  void* free_views = nullptr;  ///< each node's first word links the next
  std::size_t cached_views = 0;
  SkBuffStats stats;

  ~Pool() { trim(); }

  void trim() {
    for (std::uint32_t k = 0; k < kNumClasses; ++k) {
      while (free_head[k] != nullptr) {
        detail::SkbBlock* b = free_head[k];
        free_head[k] = b->next_free;
        raw_block_delete(b);
      }
      cached_count[k] = 0;
    }
    while (free_views != nullptr) {
      void* p = free_views;
      free_views = *static_cast<void**>(p);
      ::operator delete(p);
    }
    cached_views = 0;
  }
};

thread_local Pool g_pool;

}  // namespace

namespace detail {

SkbBlock* skb_block_acquire(std::size_t cap) {
  Pool& pool = g_pool;
  const std::uint32_t k = class_for(cap);
  SkbBlock* b;
  if (k != kUnpooled && pool.free_head[k] != nullptr) {
    b = pool.free_head[k];
    pool.free_head[k] = b->next_free;
    --pool.cached_count[k];
    ++pool.stats.pool_hits;
  } else {
    b = raw_block_new(k != kUnpooled ? kClassSizes[k] : cap);
    ++pool.stats.block_allocs;
  }
  b->refs = 1;
  b->klass = k;
  // Report the *requested* capacity even when the class rounds up, so
  // tailroom (and therefore put()'s failure behavior) is identical to a
  // dedicated allocation — the pool is invisible to protocol code.
  b->cap = cap;
  b->next_free = nullptr;
  b->csum_len = 0;
  b->pat_len = 0;
  pool.stats.live_bytes += cap;
  if (pool.stats.live_bytes > pool.stats.peak_bytes) {
    pool.stats.peak_bytes = pool.stats.live_bytes;
  }
  return b;
}

void skb_block_release(SkbBlock* b) {
  if (--b->refs != 0) return;
  Pool& pool = g_pool;
  pool.stats.live_bytes -=
      b->cap <= pool.stats.live_bytes ? b->cap : pool.stats.live_bytes;
  const std::uint32_t k = b->klass;
  if (k == kUnpooled || pool.cached_count[k] >= kMaxCachedPerClass) {
    raw_block_delete(b);
    return;
  }
  b->next_free = pool.free_head[k];
  pool.free_head[k] = b;
  ++pool.cached_count[k];
}

}  // namespace detail

const SkBuffStats& skbuff_stats() { return g_pool.stats; }

void skbuff_stats_reset() { g_pool.stats = SkBuffStats{}; }

void skbuff_peak_reset() {
  g_pool.stats.peak_bytes = g_pool.stats.live_bytes;
}

std::size_t skbuff_pool_cached() {
  std::size_t total = 0;
  for (std::size_t n : g_pool.cached_count) total += n;
  return total;
}

void skbuff_pool_trim() { g_pool.trim(); }

void* SkBuff::operator new(std::size_t bytes) {
  Pool& pool = g_pool;
  void* p = pool.free_views;
  if (p == nullptr) return ::operator new(bytes);
  pool.free_views = *static_cast<void**>(p);
  --pool.cached_views;
  return p;
}

void SkBuff::operator delete(void* p) noexcept {
  Pool& pool = g_pool;
  if (pool.cached_views >= kMaxCachedViews) {
    ::operator delete(p);
    return;
  }
  *static_cast<void**>(p) = pool.free_views;
  pool.free_views = p;
  ++pool.cached_views;
}

SkBuffPtr SkBuff::alloc(std::size_t size, std::size_t headroom) {
  return SkBuffPtr{
      new SkBuff(detail::skb_block_acquire(size + headroom), headroom)};
}

SkBuffPtr SkBuff::clone() const {
  ++g_pool.stats.clones;
  return SkBuffPtr{new SkBuff(*this)};
}

void SkBuff::unshare() {
  if (block_->refs == 1) return;
  detail::SkbBlock* copy = detail::skb_block_acquire(block_->cap);
  std::memcpy(copy->bytes() + head_, block_->bytes() + head_, len_);
  --block_->refs;  // cannot hit zero: refs > 1 checked above
  block_ = copy;
  ++g_pool.stats.cow_copies;
}

bool SkBuff::checksum_ok() const {
  SkBuffStats& stats = g_pool.stats;
  detail::SkbBlock& b = *block_;
  if (b.csum_len != 0 && b.csum_len == len_ && b.csum_head == head_) {
    ++stats.csum_cached;
    return true;
  }
  stats.csum_bytes += len_;
  if (!kern::checksum_ok(bytes())) return false;
  b.csum_head = head_;
  b.csum_len = len_;
  return true;
}

bool SkBuff::pattern_memo_hit(std::size_t n, std::uint64_t offset) const {
  const detail::SkbBlock& b = *block_;
  if (b.pat_len == 0 || head_ < b.pat_head ||
      head_ + n > b.pat_head + b.pat_len ||
      b.pat_offset + (head_ - b.pat_head) != offset) {
    return false;
  }
  ++g_pool.stats.pattern_cached;
  return true;
}

void SkBuff::pattern_memo_set(std::size_t n, std::uint64_t offset) const {
  detail::SkbBlock& b = *block_;
  b.pat_head = head_;
  b.pat_len = n;
  b.pat_offset = offset;
}

std::uint8_t* SkBuff::push(std::size_t n) {
  if (n > head_) throw std::logic_error("SkBuff::push: headroom exhausted");
  prepare_write();
  head_ -= n;
  len_ += n;
  return block_->bytes() + head_;
}

const std::uint8_t* SkBuff::pull(std::size_t n) {
  if (n > len_) throw std::logic_error("SkBuff::pull: past end of data");
  head_ += n;
  len_ -= n;
  return data();
}

std::uint8_t* SkBuff::put(std::size_t n) {
  if (n > tailroom()) throw std::logic_error("SkBuff::put: tailroom exhausted");
  prepare_write();
  std::uint8_t* at = block_->bytes() + head_ + len_;
  len_ += n;
  return at;
}

void SkBuff::trim(std::size_t n) {
  if (n > len_) throw std::logic_error("SkBuff::trim: growing not allowed");
  len_ = n;
}

void SkBuffQueue::push_back(SkBuffPtr skb) {
  bytes_ += skb->size();
  items_.push_back(std::move(skb));
}

void SkBuffQueue::push_front(SkBuffPtr skb) {
  bytes_ += skb->size();
  items_.push_front(std::move(skb));
}

SkBuffPtr SkBuffQueue::pop_front() {
  if (items_.empty()) return nullptr;
  SkBuffPtr skb = std::move(items_.front());
  items_.pop_front();
  bytes_ -= skb->size();
  return skb;
}

void SkBuffQueue::pull_front(std::size_t n) {
  items_.front()->pull(n);
  bytes_ -= n;
}

void SkBuffQueue::clear() {
  items_.clear();
  bytes_ = 0;
}

}  // namespace hrmc::kern
