// Flat per-epoch message arenas for the scheduler control plane.
//
// The predefined phase delivers O(messages) records per epoch; a vector-of-
// vectors inbox means N separate clears and N growing allocations churning
// every epoch. The arena keeps one append-only buffer of (owner, message)
// records and groups records by owner with one stable counting sort the
// first time a consumer asks, preserving per-owner delivery order exactly.
//
// Sparse contract (the dirty-set invariant the epoch pipeline relies on):
// every per-epoch cost here is O(messages this epoch), never O(owners).
//  - push() marks the owner dirty the first time it receives a message
//    (who marks: the delivery path, via push).
//  - owners() exposes exactly the dirty owners, ascending — the epoch
//    pipeline iterates that instead of scanning all N ToRs.
//  - clear() resets only the dirty owners' counters (who clears: the
//    scheduler at its clear_inboxes() stage), so a quiescent epoch is O(1).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/assert.h"

namespace negotiator {

template <typename T>
class InboxArena {
 public:
  explicit InboxArena(int owners = 0) { reset(owners); }

  /// Sets the owner-id range [0, owners) and drops all messages.
  void reset(int owners) {
    NEG_ASSERT(owners >= 0, "negative owner count");
    owners_ = owners;
    count_.assign(static_cast<std::size_t>(owners), 0);
    start_.assign(static_cast<std::size_t>(owners), 0);
    touched_.clear();
    items_.clear();
    grouped_valid_ = false;
  }

  /// Drops every message; capacity is retained across epochs. O(dirty
  /// owners), not O(owners).
  void clear() {
    for (const std::int32_t o : touched_) {
      count_[static_cast<std::size_t>(o)] = 0;
    }
    touched_.clear();
    items_.clear();
    grouped_valid_ = false;
  }

  void push(std::int32_t owner, const T& message) {
    NEG_ASSERT(owner >= 0 && owner < owners_, "owner out of range");
    if (count_[static_cast<std::size_t>(owner)]++ == 0) {
      touched_.push_back(owner);
      sorted_valid_ = false;
    }
    items_.emplace_back(owner, message);
    grouped_valid_ = false;
  }

  bool empty() const { return items_.empty(); }
  std::size_t total() const { return items_.size(); }

  /// Owners holding at least one message this epoch, ascending. The epoch
  /// pipeline iterates this instead of all N ToRs; ascending order keeps
  /// the processing order identical to the historical dense 0..N-1 scan.
  std::span<const std::int32_t> owners() const {
    if (!sorted_valid_) {
      std::sort(touched_.begin(), touched_.end());
      sorted_valid_ = true;
    }
    return touched_;
  }

  /// Messages delivered to `owner`, in delivery order.
  std::span<const T> for_owner(std::int32_t owner) const {
    NEG_ASSERT(owner >= 0 && owner < owners_, "owner out of range");
    const auto n =
        static_cast<std::size_t>(count_[static_cast<std::size_t>(owner)]);
    if (n == 0) return {};
    if (!grouped_valid_) group();
    return std::span<const T>(
        grouped_.data() + start_[static_cast<std::size_t>(owner)], n);
  }

 private:
  /// Stable counting sort by owner into grouped_; touches only the dirty
  /// owners (counts are already maintained by push).
  void group() const {
    std::int32_t offset = 0;
    for (const std::int32_t o : owners()) {
      start_[static_cast<std::size_t>(o)] = offset;
      offset += count_[static_cast<std::size_t>(o)];
    }
    // Scatter using start_ as the running cursor, then rewind it by each
    // owner's count so it points at block starts again.
    grouped_.resize(items_.size());
    for (const auto& [owner, msg] : items_) {
      auto& cur = start_[static_cast<std::size_t>(owner)];
      grouped_[static_cast<std::size_t>(cur)] = msg;
      ++cur;
    }
    for (const std::int32_t o : owners()) {
      start_[static_cast<std::size_t>(o)] -=
          count_[static_cast<std::size_t>(o)];
    }
    grouped_valid_ = true;
  }

  int owners_{0};
  std::vector<std::pair<std::int32_t, T>> items_;
  mutable std::vector<std::int32_t> touched_;  // dirty owners (see owners())
  mutable std::vector<std::int32_t> count_;    // per-owner message count
  mutable std::vector<std::int32_t> start_;    // per-owner offset in grouped_
  mutable std::vector<T> grouped_;
  mutable bool grouped_valid_{false};
  mutable bool sorted_valid_{true};
};

}  // namespace negotiator
