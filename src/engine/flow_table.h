// The fabric's single per-flow store, addressed by a dense index in
// admission order. Each flow lives once, as one record in the FCT
// recorder the table owns, which also keeps its delivery progress and,
// once the last byte lands, its FCT.
#pragma once

#include <cstddef>

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
    total_delivered_ += bytes;
    return fct_.credit(index, bytes);
  }
  /// Logs the completion of flow `index`, whose last byte landed at
  /// `arrival`.
  void log_completion(int index, Nanos arrival) {
    fct_.record(index, arrival);
  }
  std::size_t size() const { return fct_.admitted(); }
  bool done(int index) const { return fct_.done(index); }
  /// Flows arriving in [from, until) that have not completed: the
  /// samples a summary over that window is missing.
  std::size_t unfinished(Nanos from, Nanos until) const {
    return fct_.unfinished(from, until);
  }
  /// Total bytes credited across every flow (conservation ledger).
  Bytes total_delivered() const { return total_delivered_; }

  /// The completion log over this table's flows.
  FctRecorder& fct() { return fct_; }
  const FctRecorder& fct() const { return fct_; }

 private:
  FctRecorder fct_;
  Bytes total_delivered_{0};

 public:
  /// Bytes stored per admitted flow (pinned by the footprint test).
  static constexpr std::size_t kBytesPerFlow = FctRecorder::kBytesPerFlow;
};

}  // namespace negotiator
