// Absolute timing of the two-phase epoch structure (§3.3, Fig. 2).
//
// epoch e:
//   [ predefined phase: P slots of (guardband + data) ]
//   [ scheduled phase:  K slots of scheduled_slot_ns, no guardbands ]
#pragma once

#include "common/assert.h"
#include "common/config.h"
#include "common/types.h"

namespace negotiator {

class EpochTiming {
 public:
  explicit EpochTiming(const NetworkConfig& config);

  int predefined_slots() const { return predefined_slots_; }
  int scheduled_slots() const { return scheduled_slots_; }
  Nanos epoch_length() const { return epoch_length_; }
  Nanos predefined_phase_length() const { return predefined_length_; }
  /// NetworkConfig::piggyback_payload_bytes() and
  /// scheduled_payload_bytes(), read once: the per-packet paths use these.
  Bytes piggyback_payload_bytes() const { return piggyback_payload_; }
  Bytes scheduled_payload_bytes() const { return scheduled_payload_; }

  Nanos epoch_start(std::int64_t epoch) const {
    return epoch * epoch_length_;
  }
  /// Slot start (guardband begins here).
  Nanos predefined_slot_start(std::int64_t epoch, int slot) const {
    NEG_ASSERT(slot >= 0 && slot < predefined_slots_, "slot out of range");
    return epoch_start(epoch) +
           static_cast<Nanos>(slot) * predefined_slot_ns_;
  }
  /// Instant the slot's payload is fully on the wire.
  Nanos predefined_slot_data_end(std::int64_t epoch, int slot) const {
    return predefined_slot_start(epoch, slot) + predefined_slot_ns_;
  }
  Nanos scheduled_phase_start(std::int64_t epoch) const {
    return epoch_start(epoch) + predefined_length_;
  }
  Nanos scheduled_slot_start(std::int64_t epoch, int slot) const {
    NEG_ASSERT(slot >= 0 && slot < scheduled_slots_, "slot out of range");
    return scheduled_phase_start(epoch) +
           static_cast<Nanos>(slot) * scheduled_slot_ns_;
  }
  Nanos scheduled_slot_end(std::int64_t epoch, int slot) const {
    return scheduled_slot_start(epoch, slot) + scheduled_slot_ns_;
  }

  std::int64_t epoch_containing(Nanos t) const { return t / epoch_length_; }

 private:
  int predefined_slots_;
  int scheduled_slots_;
  Nanos predefined_slot_ns_;
  Nanos scheduled_slot_ns_;
  Nanos predefined_length_;
  Nanos epoch_length_;
  Bytes piggyback_payload_;
  Bytes scheduled_payload_;
};

}  // namespace negotiator
