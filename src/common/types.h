// Fundamental identifiers and quantities shared by every module.
//
// All simulated time is kept in integer nanoseconds (Nanos). The paper's
// smallest time constants (10 ns guardbands) are comfortably representable,
// and 63-bit nanoseconds cover ~292 years of simulated time.
#pragma once

#include <cstdint>
#include <limits>

namespace negotiator {

/// Simulated time in nanoseconds.
using Nanos = std::int64_t;

/// Data volume in bytes.
using Bytes = std::int64_t;

/// Index of a top-of-rack switch, in [0, num_tors).
using TorId = std::int32_t;

/// Most ToRs a fabric may have: the per-flow record stores each endpoint
/// in 16 bits (stats/fct_recorder.h).
inline constexpr int kMaxTors = 1 << 16;

/// Index of a ToR uplink port, in [0, ports_per_tor).
using PortId = std::int32_t;

/// Unique flow identifier, assigned by the workload generator.
using FlowId = std::int64_t;

/// Direction of a ToR uplink fibre (§3.6.1): egress (ToR tx -> AWGR) and
/// ingress (AWGR -> ToR rx) fail and recover independently. Lives here so
/// the event layer can carry link-toggle events without depending on the
/// topology module.
enum class LinkDirection { kEgress, kIngress };

/// One staged final-destination delivery riding a slot's coalesced
/// delivery walk: the fabrics dequeue inline (queue state must stay live
/// for same-slot reads) but park the downstream effects — flow credit, FCT
/// completion, goodput accounting — as one of these records, then flush the
/// slot's records through FlowTable::credit_span /
/// GoodputMeter::record_delivery_span in dequeue order. Lives here so the
/// engine and stats layers can share spans without depending on each other.
struct DeliveryRecord {
  FlowId flow;  // dense FlowTable index
  TorId dst;    // final destination ToR
  Bytes bytes;
  std::uint32_t seq{0};  // ARQ sequence number; 0 when transport disabled
};

inline constexpr TorId kInvalidTor = -1;
inline constexpr PortId kInvalidPort = -1;
inline constexpr FlowId kInvalidFlow = -1;
inline constexpr Nanos kNeverNs = std::numeric_limits<Nanos>::max();

/// One microsecond / one millisecond in Nanos, for readable literals.
inline constexpr Nanos kMicro = 1'000;
inline constexpr Nanos kMilli = 1'000'000;

}  // namespace negotiator
