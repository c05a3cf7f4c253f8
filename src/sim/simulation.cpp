#include "sim/simulation.h"

#include "common/assert.h"

namespace negotiator {

void Simulation::advance_to(Nanos t) {
  NEG_ASSERT(t >= now_, "time must be monotonic");
  events_.run_until(t);
  now_ = t;
}

}  // namespace negotiator
