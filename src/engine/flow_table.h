// The fabric's single per-flow store, addressed by a dense index in
// admission order. Each flow's attributes live once, in the FCT recorder
// the table owns; the table adds the bytes still to deliver and logs the
// completion when the last byte lands.
#pragma once

#include <cstddef>
#include <vector>

#include "common/assert.h"
#include "common/types.h"
#include "stats/fct_recorder.h"
#include "workload/flow.h"

namespace negotiator {

/// Tracks per-flow delivery progress and closes FCT samples.
class FlowTable {
 public:
  /// Makes room for `total` flows and their completions, so a batch
  /// admission never reallocates mid-batch (see reserve_total).
  void reserve(std::size_t total);
  /// Registers a flow, returning its dense internal index.
  int add(const Flow& flow);
  Flow flow(int index) const { return fct_.flow(index); }
  /// Credits `bytes` arriving at the destination at `arrival`; logs the
  /// completion when the flow completes.
  void credit(int index, Bytes bytes, Nanos arrival);
  /// Credits a slot's coalesced delivery span in record order — identical
  /// per-record arithmetic to n credit() calls (a flow may appear several
  /// times in one span).
  void credit_span(const DeliveryRecord* records, std::size_t n,
                   Nanos arrival);
  /// Credits `bytes` without logging; returns true when the flow just
  /// completed. The caller logs the completion with log_completion, which
  /// lets it order a phase's completions itself.
  bool credit_unlogged(int index, Bytes bytes) {
    Bytes& left = remaining_[static_cast<std::size_t>(index)];
    NEG_ASSERT(left > 0, "delivery to a completed flow");
    NEG_ASSERT(bytes <= left, "over-delivery");
    left -= bytes;
    total_delivered_ += bytes;
    return left == 0;
  }
  /// Logs the completion of flow `index`, whose last byte landed at
  /// `arrival`.
  void log_completion(int index, Nanos arrival) {
    fct_.record(index, arrival - fct_.arrival(index));
  }
  std::size_t size() const { return remaining_.size(); }
  bool done(int index) const {
    return remaining_[static_cast<std::size_t>(index)] == 0;
  }
  /// Flows arriving in [from, until) that have not completed: the
  /// samples a summary over that window is missing.
  std::size_t unfinished(Nanos from, Nanos until) const;
  /// Total bytes credited across every flow (conservation ledger).
  Bytes total_delivered() const { return total_delivered_; }

  /// The completion log over this table's flows.
  FctRecorder& fct() { return fct_; }
  const FctRecorder& fct() const { return fct_; }

 private:
  FctRecorder fct_;
  /// Bytes each flow still awaits; a flow is done exactly at 0 (sizes
  /// are > 0).
  std::vector<Bytes> remaining_;
  Bytes total_delivered_{0};

 public:
  /// Bytes stored per admitted flow (pinned by the footprint test).
  static constexpr std::size_t kBytesPerFlow =
      FctRecorder::kBytesPerFlow + sizeof(Bytes);
};

}  // namespace negotiator
