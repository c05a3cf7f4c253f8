// Goodput accounting. Counts payload bytes delivered to their final
// destination ToR; relay (first-hop) bytes are tracked separately — they
// consume receiver bandwidth but are not goodput (§4.2, Fig. 18).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/assert.h"
#include "common/types.h"
#include "common/units.h"

namespace negotiator {

class GoodputMeter {
 public:
  GoodputMeter(int num_tors, Nanos window_ns = 0);

  /// Final-destination delivery of `bytes` payload at `when` into `dst`.
  /// Inline: the negotiator's per-segment drain calls this once per
  /// (pair, goodput bucket) it serves.
  void record_delivery(TorId dst, Bytes bytes, Nanos when) {
    NEG_ASSERT(bytes >= 0, "negative delivery");
    if (when >= measure_from_ && when < measure_to_) delivered_ += bytes;
    if (window_ns_ > 0) {
      bump_series(per_tor_windows_[static_cast<std::size_t>(dst)], bytes,
                  when);
    }
  }

  /// What record_delivery does with bytes arriving at `when` depends only
  /// on this key: whether `when` lies in the measure interval, and its
  /// window. Deliveries with equal keys may be booked in one call.
  std::int64_t bucket(Nanos when) const {
    const Nanos window = window_ns_ > 0 ? when / window_ns_ : 0;
    return 2 * window + (when >= measure_from_ && when < measure_to_ ? 1 : 0);
  }

  /// First-hop (relay) reception at an intermediate ToR.
  void record_relay_reception(TorId intermediate, Bytes bytes, Nanos when) {
    if (when >= measure_from_ && when < measure_to_) relay_ += bytes;
    if (window_ns_ > 0) {
      bump_series(
          per_tor_relay_windows_[static_cast<std::size_t>(intermediate)],
          bytes, when);
    }
  }

  /// Span form of record_delivery for one slot's coalesced delivery walk:
  /// every record shares the span's arrival time `when`, so the measure-
  /// interval check runs once and the per-ToR window series take one
  /// per-destination delta each instead of one bump per packet. Identical
  /// arithmetic to n per-record calls (integer byte sums commute).
  void record_delivery_span(const DeliveryRecord* records, std::size_t n,
                            Nanos when) {
    Bytes total = 0;
    for (std::size_t i = 0; i < n; ++i) {
      NEG_ASSERT(records[i].bytes >= 0, "negative delivery");
      total += records[i].bytes;
    }
    if (when >= measure_from_ && when < measure_to_) delivered_ += total;
    if (window_ns_ > 0 && n > 0) {
      // Per-destination coalescing through a scratch accumulator: records
      // for the same ToR may interleave arbitrarily in dequeue order.
      for (std::size_t i = 0; i < n; ++i) {
        auto& acc = span_accum_[static_cast<std::size_t>(records[i].dst)];
        if (acc == 0) span_touched_.push_back(records[i].dst);
        acc += records[i].bytes;
      }
      for (const TorId dst : span_touched_) {
        auto& acc = span_accum_[static_cast<std::size_t>(dst)];
        bump_series(per_tor_windows_[static_cast<std::size_t>(dst)], acc,
                    when);
        acc = 0;
      }
      span_touched_.clear();
    }
  }

  void set_measure_interval(Nanos from, Nanos to);

  Bytes delivered_bytes() const { return delivered_; }
  Bytes relay_bytes() const { return relay_; }

  /// Average goodput normalized to `host_rate` per ToR over the measure
  /// interval: delivered / (N * host_rate * duration).
  double normalized_goodput(Rate host_rate) const;

  /// Delivered bytes per window per ToR (only when window_ns > 0); index =
  /// window number.
  const std::vector<Bytes>& tor_window_series(TorId dst) const;
  const std::vector<Bytes>& tor_relay_window_series(TorId dst) const;
  Nanos window_ns() const { return window_ns_; }

 private:
  void bump_series(std::vector<Bytes>& series, Bytes bytes, Nanos when);

  int num_tors_;
  Nanos window_ns_;
  Nanos measure_from_{0};
  Nanos measure_to_{kNeverNs};
  Bytes delivered_{0};
  Bytes relay_{0};
  std::vector<std::vector<Bytes>> per_tor_windows_;
  std::vector<std::vector<Bytes>> per_tor_relay_windows_;
  // Scratch for record_delivery_span's per-destination coalescing (sized
  // num_tors when the window series are enabled; zeroed between spans).
  std::vector<Bytes> span_accum_;
  std::vector<TorId> span_touched_;
};

}  // namespace negotiator
