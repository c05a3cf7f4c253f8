#include "core/epoch.h"

#include "common/assert.h"

namespace negotiator {

EpochTiming::EpochTiming(const NetworkConfig& config)
    : predefined_slots_(config.predefined_slots()),
      scheduled_slots_(config.epoch.scheduled_slots),
      predefined_slot_ns_(config.epoch.predefined_slot_ns()),
      scheduled_slot_ns_(config.epoch.scheduled_slot_ns),
      piggyback_payload_(config.piggyback_payload_bytes()),
      scheduled_payload_(config.scheduled_payload_bytes()) {
  predefined_length_ = static_cast<Nanos>(predefined_slots_) *
                       predefined_slot_ns_;
  epoch_length_ = predefined_length_ +
                  static_cast<Nanos>(scheduled_slots_) * scheduled_slot_ns_;
  NEG_ASSERT(epoch_length_ > 0, "degenerate epoch");
}

}  // namespace negotiator
