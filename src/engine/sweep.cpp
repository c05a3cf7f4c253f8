#include "engine/sweep.h"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "common/env.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "workload/generator.h"

namespace negotiator {

namespace {

/// One workload trace shared by a run of points that are identical except
/// for `measure_from`/`label`. Generated once, by whichever worker gets
/// there first (call_once keeps that race deterministic in outcome).
struct SharedWorkload {
  std::once_flag once;
  std::vector<Flow> flows;
};

std::vector<Flow> generate_workload(const SweepPoint& point) {
  WorkloadGenerator gen(point.sizes, point.config.num_tors,
                        point.config.host_rate(), point.load,
                        Rng(point.seed));
  return gen.generate(0, point.duration);
}

/// The standard measurement applied to an already generated trace — the
/// single definition both the cached and uncached paths go through, so
/// they cannot drift apart.
RunResult run_with_flows(const SweepPoint& point,
                         const std::vector<Flow>& flows) {
  Runner runner(point.config);
  runner.add_flows(flows);
  return runner.run(point.duration, point.measure_from);
}

/// True when the two standard points would generate byte-identical
/// workload traces *and* run them on identical fabrics — i.e. they may
/// differ only in `measure_from` and `label`. Custom bodies are never
/// shared (they own their workload generation).
bool may_share_workload(const SweepPoint& a, const SweepPoint& b) {
  return !a.body && !b.body && a.config == b.config && a.seed == b.seed &&
         a.duration == b.duration && a.load == b.load && a.sizes == b.sizes;
}

SweepOutcome execute_point(const SweepPoint& point, SharedWorkload* shared) {
  SweepOutcome outcome;
  try {
    if (point.body) {
      outcome = point.body(point);
    } else if (shared != nullptr) {
      std::call_once(shared->once,
                     [&] { shared->flows = generate_workload(point); });
      outcome.result = run_with_flows(point, shared->flows);
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

/// shared[i] is non-null iff point i belongs to a maximal run of >= 2
/// consecutive points that may share one generated workload.
std::vector<std::shared_ptr<SharedWorkload>> plan_workload_cache(
    const std::vector<SweepPoint>& points) {
  std::vector<std::shared_ptr<SharedWorkload>> shared(points.size());
  std::size_t i = 0;
  while (i < points.size()) {
    std::size_t j = i + 1;
    while (j < points.size() &&
           may_share_workload(points[i], points[j])) {
      ++j;
    }
    if (j - i >= 2) {
      auto cache = std::make_shared<SharedWorkload>();
      for (std::size_t k = i; k < j; ++k) shared[k] = cache;
    }
    i = j;
  }
  return shared;
}

}  // namespace

RunResult run_standard_point(const SweepPoint& point) {
  return run_with_flows(point, generate_workload(point));
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
  // Consecutive points that differ only in measure_from/label (e.g. a
  // warm-up-window study) share one generated workload trace instead of
  // regenerating it per point. Results are bit-identical either way: the
  // trace is a pure function of (sizes, config, load, seed, duration).
  const auto shared = plan_workload_cache(points);
  if (threads_ <= 1 || points.size() <= 1) {
    for (std::size_t i = 0; i < points.size(); ++i) {
      outcomes[i] = execute_point(points[i], shared[i].get());
    }
    return outcomes;
  }
  // No point spawning workers that could never receive a task.
  ThreadPool pool(static_cast<unsigned>(
      std::min<std::size_t>(threads_, points.size())));
  for (std::size_t i = 0; i < points.size(); ++i) {
    pool.submit([&points, &outcomes, &shared, i] {
      outcomes[i] = execute_point(points[i], shared[i].get());
    });
  }
  pool.drain();
  return outcomes;
}

}  // namespace negotiator
