#include "workload/incast.h"

#include <cstdint>
#include <numeric>
#include <utility>

#include "common/assert.h"
#include "workload/poisson.h"

namespace negotiator {
namespace {

/// Draws incasts of one shape straight into a caller's flow vector. The
/// candidate-source buffer is allocated once and refilled per burst.
class IncastBurster {
 public:
  IncastBurster(int num_tors, int degree, Bytes flow_size, int group)
      : degree_(degree), flow_size_(flow_size), group_(group) {
    NEG_ASSERT(degree >= 1 && degree < num_tors, "incast degree out of range");
    NEG_ASSERT(flow_size > 0, "incast flow size must be positive");
    candidates_.resize(static_cast<std::size_t>(num_tors) - 1);
  }

  /// Appends one incast to `dst`, flow ids first_id .. first_id+degree-1.
  void append(TorId dst, Nanos when, Rng& rng, FlowId first_id,
              std::vector<Flow>& out) {
    NEG_ASSERT(dst >= 0 && dst <= static_cast<TorId>(candidates_.size()),
               "incast destination out of range");
    // Every ToR but dst, in id order, then a partial Fisher-Yates.
    const auto split = candidates_.begin() + dst;
    std::iota(candidates_.begin(), split, TorId{0});
    std::iota(split, candidates_.end(), dst + 1);
    const auto pool = static_cast<std::int64_t>(candidates_.size());
    for (int i = 0; i < degree_; ++i) {
      const auto j = static_cast<std::size_t>(i + rng.next_below(pool - i));
      std::swap(candidates_[static_cast<std::size_t>(i)], candidates_[j]);
      out.push_back(Flow{first_id + i, candidates_[static_cast<std::size_t>(i)],
                         dst, flow_size_, when, group_});
    }
  }

 private:
  int degree_;
  Bytes flow_size_;
  int group_;
  std::vector<TorId> candidates_;
};

}  // namespace

std::vector<Flow> make_incast(int num_tors, int degree, Bytes flow_size,
                              TorId dst, Nanos when, Rng& rng, FlowId first_id,
                              int group) {
  IncastBurster burster(num_tors, degree, flow_size, group);
  std::vector<Flow> flows;
  flows.reserve(static_cast<std::size_t>(degree));
  burster.append(dst, when, rng, first_id, flows);
  return flows;
}

std::vector<Flow> make_incast_mix(int num_tors, int degree, Bytes flow_size,
                                  double bandwidth_fraction, Rate host_rate,
                                  Nanos start, Nanos duration, Rng& rng,
                                  FlowId first_id, int group) {
  NEG_ASSERT(bandwidth_fraction > 0.0, "bandwidth fraction must be positive");
  IncastBurster burster(num_tors, degree, flow_size, group);
  const double bytes_per_ns =
      bandwidth_fraction * host_rate.bytes_per_ns * num_tors;
  const double event_rate =
      bytes_per_ns / (static_cast<double>(degree) * flow_size);
  PoissonProcess events(event_rate, rng.fork());
  std::vector<Flow> flows;
  flows.reserve(
      (static_cast<std::size_t>(event_rate * duration * 1.1) + 16) *
      static_cast<std::size_t>(degree));
  FlowId id = first_id;
  for (;;) {
    const Nanos t = events.next_arrival();
    if (t >= duration) break;
    const TorId dst = static_cast<TorId>(rng.next_below(num_tors));
    burster.append(dst, start + t, rng, id, flows);
    id += degree;
  }
  return flows;
}

}  // namespace negotiator
