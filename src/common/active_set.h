// Dense set of small ids — ToR ids, or the predefined phase's connection
// keys — tuned for the fabric hot path: a word bitmap and a member count,
// nothing else. Membership, insert and erase are O(1) bit
// operations; ascending iteration and successor queries (the VLB
// spreader's round-robin pick) are count-trailing-zeros word scans, so
// iteration costs O(words + size) and yields the stable ascending view
// schedulers rely on.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "common/assert.h"
#include "common/types.h"

namespace negotiator {

class ActiveSet {
 public:
  /// Ascending walk over the set bits: holds the current word's remaining
  /// bits and skips empty words.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = TorId;
    using difference_type = std::ptrdiff_t;
    using pointer = const TorId*;
    using reference = TorId;

    const_iterator() = default;

    TorId operator*() const {
      return static_cast<TorId>(
          w_ * 64 + static_cast<std::size_t>(std::countr_zero(bits_)));
    }
    const_iterator& operator++() {
      bits_ &= bits_ - 1;  // clear the lowest set bit
      if (bits_ == 0) seek(w_ + 1);
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++*this;
      return old;
    }
    bool operator==(const const_iterator& o) const {
      return w_ == o.w_ && bits_ == o.bits_;
    }

   private:
    friend class ActiveSet;
    const_iterator(const std::uint64_t* words, std::size_t n, std::size_t w)
        : words_(words), n_(n) {
      seek(w);
    }
    /// Moves to the first non-empty word at or after `w` (end when none).
    void seek(std::size_t w) {
      while (w < n_ && words_[w] == 0) ++w;
      w_ = w;
      bits_ = w < n_ ? words_[w] : 0;
    }

    const std::uint64_t* words_{nullptr};
    std::size_t n_{0};
    std::size_t w_{0};
    std::uint64_t bits_{0};
  };

  ActiveSet() = default;
  explicit ActiveSet(int capacity) { reset(capacity); }

  /// Clears the set and sizes the bitmap for ids in [0, capacity).
  void reset(int capacity) {
    NEG_ASSERT(capacity >= 0, "negative capacity");
    capacity_ = capacity;
    words_.assign((static_cast<std::size_t>(capacity) + 63) / 64, 0);
    size_ = 0;
  }

  void insert(TorId id) {
    grow_to(id);
    std::uint64_t& word = words_[static_cast<std::size_t>(id) / 64];
    const std::uint64_t bit = 1ULL << (static_cast<std::size_t>(id) % 64);
    if ((word & bit) != 0) return;
    word |= bit;
    ++size_;
  }

  /// Empties the set, keeping its capacity; O(1) when already empty.
  void clear() {
    if (size_ == 0) return;
    std::fill(words_.begin(), words_.end(), std::uint64_t{0});
    size_ = 0;
  }

  void erase(TorId id) {
    if (id < 0 || id >= capacity_) return;
    std::uint64_t& word = words_[static_cast<std::size_t>(id) / 64];
    const std::uint64_t bit = 1ULL << (static_cast<std::size_t>(id) % 64);
    if ((word & bit) == 0) return;
    word &= ~bit;
    --size_;
  }

  bool contains(TorId id) const {
    return id >= 0 && id < capacity_ &&
           (words_[static_cast<std::size_t>(id) / 64] &
            (1ULL << (static_cast<std::size_t>(id) % 64))) != 0;
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Ascending iteration over the live ids.
  const_iterator begin() const {
    return const_iterator(words_.data(), words_.size(), 0);
  }
  const_iterator end() const {
    return const_iterator(words_.data(), words_.size(), words_.size());
  }

  /// Smallest member; kInvalidTor when empty.
  TorId first_member() const { return empty() ? kInvalidTor : *begin(); }

  /// Smallest member strictly greater than `id` (kInvalidTor when none) —
  /// a count-trailing-zeros scan over the bitmap words, O(words) worst
  /// case but O(1) in the common dense case. `id` may be any value; ids
  /// below 0 return the first member.
  TorId next_member_after(TorId id) const {
    if (id < 0) return first_member();
    const std::size_t start = static_cast<std::size_t>(id) + 1;
    if (start >= static_cast<std::size_t>(capacity_)) return kInvalidTor;
    std::size_t w = start / 64;
    std::uint64_t word = words_[w] & ~((1ULL << (start % 64)) - 1);
    while (true) {
      if (word != 0) {
        return static_cast<TorId>(w * 64 +
                                  static_cast<std::size_t>(
                                      std::countr_zero(word)));
      }
      if (++w == words_.size()) return kInvalidTor;
      word = words_[w];
    }
  }

 private:
  void grow_to(TorId id) {
    NEG_ASSERT(id >= 0, "negative id");
    if (id >= capacity_) {
      capacity_ = id + 1;
      words_.resize((static_cast<std::size_t>(capacity_) + 63) / 64, 0);
    }
  }

  int capacity_{0};
  std::size_t size_{0};
  std::vector<std::uint64_t> words_;
};

}  // namespace negotiator
