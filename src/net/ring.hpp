// FIFO ring for the net layer's queues: a NIC's transmit ring and
// receive hold, and a router port's output queue. It allocates nothing
// before its first element and doubles when full, so a card or port
// that never queues costs no memory, and one that does reuses its
// buffer from then on.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace hrmc::net {

template <typename T>
class Ring {
 public:
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// The oldest element; the ring must not be empty.
  [[nodiscard]] T& front() { return buf_[head_]; }

  void push_back(T v) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & (buf_.size() - 1)] = std::move(v);
    ++size_;
  }

  /// Removes the oldest element and returns it; the ring must not be
  /// empty.
  T pop_front() {
    T v = std::move(buf_[head_]);
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
    return v;
  }

 private:
  void grow() {
    std::vector<T> grown(std::max<std::size_t>(8, 2 * buf_.size()));
    for (std::size_t i = 0; i < size_; ++i) {
      grown[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
    }
    buf_.swap(grown);
    head_ = 0;
  }

  std::vector<T> buf_;  ///< capacity 0 or a power of two, all slots built
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace hrmc::net
