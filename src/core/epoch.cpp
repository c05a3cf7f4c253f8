#include "core/epoch.h"

#include "common/assert.h"

namespace negotiator {

EpochTiming::EpochTiming(const NetworkConfig& config)
    : predefined_slots_(config.predefined_slots()),
      scheduled_slots_(config.epoch.scheduled_slots),
      predefined_slot_ns_(config.epoch.predefined_slot_ns()),
      scheduled_slot_ns_(config.epoch.scheduled_slot_ns) {
  predefined_length_ = static_cast<Nanos>(predefined_slots_) *
                       predefined_slot_ns_;
  epoch_length_ = predefined_length_ +
                  static_cast<Nanos>(scheduled_slots_) * scheduled_slot_ns_;
  NEG_ASSERT(epoch_length_ > 0, "degenerate epoch");
}

Nanos EpochTiming::predefined_slot_start(std::int64_t epoch, int slot) const {
  NEG_ASSERT(slot >= 0 && slot < predefined_slots_, "slot out of range");
  return epoch_start(epoch) + static_cast<Nanos>(slot) * predefined_slot_ns_;
}

Nanos EpochTiming::predefined_slot_data_end(std::int64_t epoch,
                                            int slot) const {
  return predefined_slot_start(epoch, slot) + predefined_slot_ns_;
}

Nanos EpochTiming::scheduled_phase_start(std::int64_t epoch) const {
  return epoch_start(epoch) + predefined_length_;
}

Nanos EpochTiming::scheduled_slot_start(std::int64_t epoch, int slot) const {
  NEG_ASSERT(slot >= 0 && slot < scheduled_slots_, "slot out of range");
  return scheduled_phase_start(epoch) +
         static_cast<Nanos>(slot) * scheduled_slot_ns_;
}

Nanos EpochTiming::scheduled_slot_end(std::int64_t epoch, int slot) const {
  return scheduled_slot_start(epoch, slot) + scheduled_slot_ns_;
}

}  // namespace negotiator
