#include "engine/flow_table.h"

#include "common/assert.h"
#include "common/reserve.h"

namespace negotiator {

void FlowTable::reserve(std::size_t total) {
  reserve_total(remaining_, total);
  fct_.reserve(total);
}

int FlowTable::add(const Flow& flow) {
  NEG_ASSERT(flow.size > 0, "flow must carry data");
  NEG_ASSERT(flow.src != flow.dst, "self flows not modelled");
  remaining_.push_back(flow.size);
  return fct_.add(flow);
}

std::size_t FlowTable::unfinished(Nanos from, Nanos until) const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < remaining_.size(); ++i) {
    const Nanos arrival = fct_.arrival(static_cast<int>(i));
    n += remaining_[i] > 0 && arrival >= from && arrival < until;
  }
  return n;
}

void FlowTable::credit(int index, Bytes bytes, Nanos arrival) {
  if (credit_unlogged(index, bytes)) log_completion(index, arrival);
}

void FlowTable::credit_span(const DeliveryRecord* records, std::size_t n,
                            Nanos arrival) {
  for (std::size_t i = 0; i < n; ++i) {
    credit(static_cast<int>(records[i].flow), records[i].bytes, arrival);
  }
}

}  // namespace negotiator
