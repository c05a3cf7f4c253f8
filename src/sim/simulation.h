// Thin driver pairing a clock with an event queue. The fabric engine is
// epoch-synchronous; this queue carries the asynchronous outside world:
// flow arrivals, incast bursts, failure/recovery events.
#pragma once

#include "common/types.h"
#include "sim/event_queue.h"

namespace negotiator {

class Simulation {
 public:
  Nanos now() const { return now_; }
  EventQueue& events() { return events_; }
  const EventQueue& events() const { return events_; }

  /// Registers the receiver of typed events (see EventSink).
  void set_sink(EventSink* sink) { events_.set_sink(sink); }

  /// Advances the clock to `t`, firing everything due on the way.
  /// Time never moves backwards.
  void advance_to(Nanos t);

 private:
  Nanos now_{0};
  EventQueue events_;
};

}  // namespace negotiator
