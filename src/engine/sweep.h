// Multi-core sweep engine: runs a declared grid of independent simulation
// points across a fixed set of worker threads and merges the results in
// submission order.
//
// Determinism contract: a sweep's results are a pure function of its
// points, never of the thread count or the OS schedule. Every point owns a
// complete simulation universe — its own Runner/FabricSim, its own
// workload, and its own Rng chain rooted at `SweepPoint::seed` — and no
// two points share mutable state (see common/rng.h for the RNG ownership
// invariant). Results land in a pre-sized slot per point, so the returned
// vector is always in submission order regardless of completion order.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/types.h"
#include "engine/runner.h"
#include "workload/size_distribution.h"

namespace negotiator {

struct SweepPoint;

/// What one executed point produced. `result` is the standard run metrics;
/// custom bodies may additionally return bench-specific numbers in
/// `metrics` (finish times, window series, ratios, ...).
struct SweepOutcome {
  RunResult result{};
  std::vector<double> metrics;
  bool ok{true};
  std::string error;  ///< exception message when !ok
};

/// One cell of a sweep grid. Without `body`, the standard measurement runs:
/// a Poisson workload drawn from `sizes` at `load` over [0, duration) with
/// Rng(seed), simulated on a fresh Runner(config), metrics over
/// [measure_from, duration). A non-empty `body` replaces the standard
/// measurement entirely; it must build every piece of mutable state it
/// touches (Runner, Rng, ...) locally so points stay isolated.
struct SweepPoint {
  NetworkConfig config;
  std::uint64_t seed{1};
  Nanos duration{0};
  Nanos measure_from{0};
  std::string label;

  SizeDistribution sizes{SizeDistribution::hadoop()};
  double load{0.5};

  std::function<SweepOutcome(const SweepPoint&)> body;
};

/// The standard measurement (the default point body), callable directly.
RunResult run_standard_point(const SweepPoint& point);

class SweepEngine {
 public:
  /// `threads == 0` means default_threads(). One thread executes the grid
  /// strictly sequentially on the calling thread (no workers).
  explicit SweepEngine(unsigned threads = 0);

  unsigned threads() const { return threads_; }

  /// NEG_BENCH_THREADS when set, otherwise
  /// std::thread::hardware_concurrency() (at least 1). A value that is not
  /// a positive integer exits with status 2 (common/env.h).
  static unsigned default_threads();

  /// Executes every point and returns one outcome per point, in submission
  /// order. A point whose body throws yields ok == false with the
  /// exception message; the remaining points still run.
  std::vector<SweepOutcome> run(const std::vector<SweepPoint>& points) const;

 private:
  unsigned threads_;
};

}  // namespace negotiator
