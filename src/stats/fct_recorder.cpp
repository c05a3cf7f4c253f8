#include "stats/fct_recorder.h"

#include <algorithm>

#include "common/reserve.h"
#include "stats/percentile.h"

namespace negotiator {

void FctRecorder::reserve(std::size_t total) {
  reserve_total(flows_, total);
  reserve_total(done_, total);
}

std::size_t FctRecorder::unfinished(Nanos from, Nanos until) const {
  std::size_t n = 0;
  for (const Record& f : flows_) {
    n += f.progress > 0 && f.arrival >= from && f.arrival < until;
  }
  return n;
}

FctSample FctRecorder::sample(std::size_t i) const {
  const Record& f = flows_[static_cast<std::size_t>(done_[i])];
  return FctSample{f.id, f.size, f.arrival, -f.progress, f.group};
}

std::vector<double> FctRecorder::measured_fcts(bool mice_only,
                                               int group) const {
  const auto measured = [&](const Record& f) {
    return f.arrival >= measure_from_ &&
           (!mice_only || f.size < kMiceFlowBytes) &&
           (group < 0 || f.group == group);
  };
  // Count first, so the buffer is allocated once at its exact size.
  std::size_t n = 0;
  for (const std::int32_t i : done_) {
    n += measured(flows_[static_cast<std::size_t>(i)]);
  }
  std::vector<double> out;
  out.reserve(n);
  for (const std::int32_t i : done_) {
    const Record& f = flows_[static_cast<std::size_t>(i)];
    if (measured(f)) out.push_back(static_cast<double>(-f.progress));
  }
  return out;
}

std::vector<double> FctRecorder::mice_fcts(int group) const {
  return measured_fcts(/*mice_only=*/true, group);
}

FctSummary FctRecorder::summarize(bool mice_only, int group) const {
  std::vector<double> fcts = measured_fcts(mice_only, group);
  FctSummary out;
  out.count = fcts.size();
  if (fcts.empty()) return out;
  // Mean and max read the buffer in completion order; the percentiles
  // then select in place, reordering it.
  out.mean_ns = mean(fcts);
  out.max_ns = *std::max_element(fcts.begin(), fcts.end());
  out.p50_ns = select_percentile(fcts, 50.0);
  out.p99_ns = select_percentile(fcts, 99.0);
  return out;
}

FctSummary FctRecorder::mice_summary(int group) const {
  return summarize(/*mice_only=*/true, group);
}

FctSummary FctRecorder::all_summary(int group) const {
  return summarize(/*mice_only=*/false, group);
}

}  // namespace negotiator
