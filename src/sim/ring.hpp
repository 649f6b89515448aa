// A growable power-of-two ring buffer (FIFO) for move-only elements.
//
// push_back/pop_front are O(1) with no allocation once the buffer has grown
// to its high-water mark, so a steady-state FIFO recycles the same slots
// forever. Its one user is bfm::Scoreboard's queue of expected words.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace mts::sim {

template <typename T>
class RingBuffer {
 public:
  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return buf_.size(); }

  void push_back(T v) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & mask_] = std::move(v);
    ++size_;
  }

  /// Precondition: !empty(). Moves the front element out; its slot is
  /// immediately reusable.
  T pop_front() {
    T v = std::move(buf_[head_]);
    head_ = (head_ + 1) & mask_;
    --size_;
    return v;
  }

  /// Releases every element (each occupied slot is overwritten with a
  /// default-constructed T, destroying held resources) but keeps the grown
  /// backing storage -- the buffer stays an allocation-free pool.
  void clear() {
    for (std::size_t i = 0; i < size_; ++i) {
      buf_[(head_ + i) & mask_] = T{};
    }
    head_ = 0;
    size_ = 0;
  }

 private:
  void grow() {
    const std::size_t new_cap = buf_.empty() ? kInitialCapacity : buf_.size() * 2;
    std::vector<T> next(new_cap);
    for (std::size_t i = 0; i < size_; ++i) {
      next[i] = std::move(buf_[(head_ + i) & mask_]);
    }
    buf_ = std::move(next);
    head_ = 0;
    mask_ = new_cap - 1;
  }

  static constexpr std::size_t kInitialCapacity = 16;

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace mts::sim
