// Flow-completion-time bookkeeping, ToR-to-ToR (§4.1).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/assert.h"
#include "common/types.h"
#include "workload/flow.h"

namespace negotiator {

class FlowTable;  // engine/flow_table.h: the only writer

struct FctSample {
  FlowId flow;
  Bytes size;
  Nanos arrival;
  Nanos fct;  // finish - arrival
  int group;
};

struct FctSummary {
  std::size_t count{0};
  double p99_ns{0.0};
  double p50_ns{0.0};
  double mean_ns{0.0};
  double max_ns{0.0};
};

/// Every admitted flow's record plus an append-only completion log. A
/// record holds the flow's attributes and one progress word: the bytes
/// still to deliver while the flow runs, and its FCT once it completes.
/// A completion stores only the flow's index; the FCT, id, size, arrival
/// and group are read back from the record. A FlowTable owns one recorder
/// and is its only writer: it adds each flow once, in admission order,
/// credits its bytes and logs the flow when its last byte lands.
class FctRecorder {
 public:
  /// The flow admitted `index`-th.
  Flow flow(int index) const {
    const Record& r = flows_[static_cast<std::size_t>(index)];
    return Flow{r.id, r.src, r.dst, r.size, r.arrival, r.group};
  }

  /// Only flows with arrival >= `measure_from` are included in summaries;
  /// earlier flows count as warm-up.
  void set_measure_from(Nanos t) { measure_from_ = t; }

  std::size_t admitted() const { return flows_.size(); }
  std::size_t completed() const { return done_.size(); }
  /// True once the last byte of flow `index` has landed.
  bool done(int index) const {
    return flows_[static_cast<std::size_t>(index)].progress <= 0;
  }
  /// Flows arriving in [from, until) that have not completed.
  std::size_t unfinished(Nanos from, Nanos until) const;

  /// Summary over mice flows (< kMiceFlowBytes), optionally one group only
  /// (group < 0 means all groups).
  FctSummary mice_summary(int group = -1) const;
  /// Summary over all flows.
  FctSummary all_summary(int group = -1) const;

  /// Raw mice FCTs in ns, for CDFs.
  std::vector<double> mice_fcts(int group = -1) const;

  /// The completions in completion order, as FctSample values assembled
  /// from the log and the flows. A live view: it sees later completions.
  class Samples {
   public:
    class iterator {
     public:
      FctSample operator*() const { return rec_->sample(i_); }
      iterator& operator++() {
        ++i_;
        return *this;
      }
      bool operator==(const iterator&) const = default;

     private:
      friend class Samples;
      iterator(const FctRecorder* rec, std::size_t i) : rec_(rec), i_(i) {}
      const FctRecorder* rec_;
      std::size_t i_;
    };

    std::size_t size() const { return rec_->done_.size(); }
    bool empty() const { return rec_->done_.empty(); }
    FctSample operator[](std::size_t i) const { return rec_->sample(i); }
    iterator begin() const { return iterator(rec_, 0); }
    iterator end() const { return iterator(rec_, size()); }

   private:
    friend class FctRecorder;
    explicit Samples(const FctRecorder* rec) : rec_(rec) {}
    const FctRecorder* rec_;
  };
  Samples samples() const { return Samples(this); }

 private:
  friend class FlowTable;

  /// A stored flow: Flow's fields, endpoints narrowed to 16 bits (which
  /// kMaxTors bounds), the progress word and no padding.
  struct Record {
    FlowId id;
    Bytes size;
    Nanos arrival;
    /// > 0: bytes still to deliver; 0: completed, not yet logged;
    /// -fct: completed and logged. A flow is done at <= 0 (sizes are > 0).
    std::int64_t progress;
    std::int32_t group;
    std::uint16_t src;
    std::uint16_t dst;
  };
  static_assert(kMaxTors - 1 <= UINT16_MAX);

  /// Stores `flow` with all its bytes to deliver, returning its admission
  /// index. Endpoints must lie in [0, kMaxTors).
  int add(const Flow& flow) {
    flows_.push_back(Record{flow.id, flow.size, flow.arrival, flow.size,
                            flow.group, static_cast<std::uint16_t>(flow.src),
                            static_cast<std::uint16_t>(flow.dst)});
    return static_cast<int>(flows_.size()) - 1;
  }
  /// Credits `bytes` to flow `index`; returns true when they were its
  /// last (the caller then logs it with record).
  bool credit(int index, Bytes bytes) {
    std::int64_t& left = flows_[static_cast<std::size_t>(index)].progress;
    NEG_ASSERT(left > 0, "delivery to a completed flow");
    NEG_ASSERT(bytes <= left, "over-delivery");
    left -= bytes;
    return left == 0;
  }
  /// Makes room for `total` flows and as many completions (see
  /// reserve_total). Log pages are only touched as completions land, so
  /// room for every admitted flow costs no resident memory up front.
  void reserve(std::size_t total);
  /// Logs the completion of flow `index`, whose last byte landed at
  /// `finish`: its progress word becomes -fct.
  void record(int index, Nanos finish) {
    Record& f = flows_[static_cast<std::size_t>(index)];
    NEG_ASSERT(f.progress == 0, "logging a flow that is not freshly done");
    NEG_ASSERT(finish >= f.arrival, "flow finished before it arrived");
    f.progress = -(finish - f.arrival);
    done_.push_back(static_cast<std::int32_t>(index));
  }

  FctSample sample(std::size_t i) const;
  /// FCTs (ns) of the measured completions passing the filters, in
  /// completion order, in a buffer of exactly their count.
  std::vector<double> measured_fcts(bool mice_only, int group) const;
  FctSummary summarize(bool mice_only, int group) const;

  std::vector<Record> flows_;
  /// The completion log: each completed flow's admission index, in
  /// completion order.
  std::vector<std::int32_t> done_;
  Nanos measure_from_{0};

 public:
  /// Bytes stored per admitted flow and per completion (pinned by the
  /// footprint test).
  static constexpr std::size_t kBytesPerFlow = sizeof(Record);
  static constexpr std::size_t kBytesPerCompletion =
      sizeof(decltype(done_)::value_type);
};

}  // namespace negotiator
