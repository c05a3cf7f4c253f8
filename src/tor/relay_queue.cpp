#include "tor/relay_queue.h"

#include "common/assert.h"

namespace negotiator {

RelayQueueSet::RelayQueueSet(int num_tors)
    : fifos_(static_cast<std::size_t>(num_tors)), active_(num_tors) {
  NEG_ASSERT(num_tors >= 1, "need >= 1 ToR");
}

}  // namespace negotiator
