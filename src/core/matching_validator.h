// Per-epoch matching invariant checker, designed to run inside the lossy
// control-plane harness (debug / sanitizer builds force it on; release
// builds opt in via NetworkConfig::validate_matching — the chaos sweep and
// the lossy goldens do).
//
// A matching emitted by any scheduler variant must satisfy, for every
// epoch and regardless of message loss / delay / duplication:
//   1. endpoints in range and src != dst;
//   2. no tx double-booking: each (src, tx_port) appears at most once;
//   3. no rx double-booking / duplicate destination assignment: each
//      (dst, rx_port) appears at most once;
//   4. reachability: the topology connects (src, tx_port) to dst;
//   5. rx consistency: rx_port is the port (src, tx_port) actually lands
//      on at dst.
// Note a source MAY be matched to the same destination on several port
// pairs in the parallel topology (Fig. 3a: one destination can grant
// multiple rx ports to one source) — that is legal and not flagged.
//
// Allocation-free per call: booking state is a pair of generation-stamped
// dense arrays, bumped per validate() call.
#pragma once

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "core/messages.h"
#include "topo/topology.h"

namespace negotiator {

class MatchingValidator {
 public:
  explicit MatchingValidator(const FlatTopology& topo)
      : topo_(topo),
        tx_gen_(static_cast<std::size_t>(topo.num_tors()) *
                    topo.ports_per_tor(),
                0),
        rx_gen_(tx_gen_.size(), 0) {}

  /// Returns true iff all invariants hold; on failure error() describes
  /// the first violation (including `epoch` for context).
  bool validate(std::span<const Match> matches, std::int64_t epoch) {
    ++gen_;
    const int n = topo_.num_tors();
    const int ports = topo_.ports_per_tor();
    for (const Match& m : matches) {
      if (m.src < 0 || m.src >= n || m.dst < 0 || m.dst >= n ||
          m.tx_port < 0 || m.tx_port >= ports || m.rx_port < 0 ||
          m.rx_port >= ports) {
        return fail(epoch, m, "endpoint or port out of range");
      }
      if (m.src == m.dst) return fail(epoch, m, "self match");
      if (!topo_.reachable(m.src, m.tx_port, m.dst)) {
        return fail(epoch, m, "tx port does not reach dst");
      }
      if (topo_.rx_port(m.src, m.tx_port) != m.rx_port) {
        return fail(epoch, m, "rx port inconsistent with topology");
      }
      const std::size_t tx =
          static_cast<std::size_t>(m.src) * ports + m.tx_port;
      const std::size_t rx =
          static_cast<std::size_t>(m.dst) * ports + m.rx_port;
      if (tx_gen_[tx] == gen_) {
        return fail(epoch, m, "tx port double-booked");
      }
      if (rx_gen_[rx] == gen_) {
        return fail(epoch, m, "rx port double-booked");
      }
      tx_gen_[tx] = gen_;
      rx_gen_[rx] = gen_;
    }
    return true;
  }

  const std::string& error() const { return error_; }

 private:
  bool fail(std::int64_t epoch, const Match& m, const char* what) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "epoch %lld: match %d:%d -> %d:%d: %s",
                  static_cast<long long>(epoch), m.src, m.tx_port, m.dst,
                  m.rx_port, what);
    error_ = buf;
    return false;
  }

  const FlatTopology& topo_;
  std::vector<std::int64_t> tx_gen_;  // [src * P + tx] -> last booked gen
  std::vector<std::int64_t> rx_gen_;  // [dst * P + rx] -> last booked gen
  std::int64_t gen_{0};
  std::string error_;
};

}  // namespace negotiator
