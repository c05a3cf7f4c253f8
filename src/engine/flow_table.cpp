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

void FlowTable::credit(int index, Bytes bytes, Nanos arrival) {
  const DeliveryRecord record{index, kInvalidTor, bytes};
  credit_span(&record, 1, arrival);
}

void FlowTable::credit_span(const DeliveryRecord* records, std::size_t n,
                            Nanos arrival) {
  for (std::size_t i = 0; i < n; ++i) {
    const int index = static_cast<int>(records[i].flow);
    Bytes& left = remaining_[static_cast<std::size_t>(index)];
    NEG_ASSERT(left > 0, "delivery to a completed flow");
    NEG_ASSERT(records[i].bytes <= left, "over-delivery");
    left -= records[i].bytes;
    total_delivered_ += records[i].bytes;
    if (left == 0) fct_.record(index, arrival - fct_.flow(index).arrival);
  }
}

}  // namespace negotiator
