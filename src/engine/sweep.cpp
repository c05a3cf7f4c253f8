#include "engine/sweep.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <thread>

#include "common/env.h"
#include "common/rng.h"
#include "workload/generator.h"

namespace negotiator {

namespace {

SweepOutcome execute_point(const SweepPoint& point) {
  SweepOutcome outcome;
  try {
    if (point.body) {
      outcome = point.body(point);
    } else {
      outcome.result = run_standard_point(point);
    }
  } catch (const std::exception& e) {
    outcome.ok = false;
    outcome.error = e.what();
  } catch (...) {
    outcome.ok = false;
    outcome.error = "unknown exception";
  }
  return outcome;
}

}  // namespace

RunResult run_standard_point(const SweepPoint& point) {
  WorkloadGenerator gen(point.sizes, point.config.num_tors,
                        point.config.host_rate(), point.load,
                        Rng(point.seed));
  const std::vector<Flow> flows = gen.generate(0, point.duration);
  Runner runner(point.config);
  runner.add_flows(flows);
  return runner.run(point.duration, point.measure_from);
}

SweepEngine::SweepEngine(unsigned threads)
    : threads_(threads != 0 ? threads : default_threads()) {}

unsigned SweepEngine::default_threads() {
  if (const char* env = std::getenv("NEG_BENCH_THREADS")) {
    return static_cast<unsigned>(parse_env_int("NEG_BENCH_THREADS", env, 1));
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 ? hw : 1;
}

std::vector<SweepOutcome> SweepEngine::run(
    const std::vector<SweepPoint>& points) const {
  std::vector<SweepOutcome> outcomes(points.size());
  if (threads_ <= 1 || points.size() <= 1) {
    for (std::size_t i = 0; i < points.size(); ++i) {
      outcomes[i] = execute_point(points[i]);
    }
    return outcomes;
  }
  // Each worker claims the next unrun point until none is left; no point
  // spawning workers that could never claim one. execute_point catches
  // every exception, so a worker never dies early.
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i = next++; i < points.size(); i = next++) {
      outcomes[i] = execute_point(points[i]);
    }
  };
  {
    // jthreads join when the block ends, also if a later spawn throws.
    std::vector<std::jthread> workers;
    const std::size_t count = std::min<std::size_t>(threads_, points.size());
    workers.reserve(count);
    for (std::size_t w = 0; w < count; ++w) workers.emplace_back(worker);
  }
  return outcomes;
}

}  // namespace negotiator
