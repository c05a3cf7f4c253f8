#include "engine/flow_table.h"

#include "common/assert.h"

namespace negotiator {

void FlowTable::reserve(std::size_t total) { fct_.reserve(total); }

int FlowTable::add(const Flow& flow) {
  NEG_ASSERT(flow.size > 0, "flow must carry data");
  NEG_ASSERT(flow.src != flow.dst, "self flows not modelled");
  return fct_.add(flow);
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
