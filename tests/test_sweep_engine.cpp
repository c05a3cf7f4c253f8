// SweepEngine: determinism across thread counts, submission-order
// preservation, and per-point exception isolation.
#include "engine/sweep.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace negotiator {
namespace {

NetworkConfig small(TopologyKind topo, SchedulerKind sched) {
  NetworkConfig c;
  c.num_tors = 16;
  c.ports_per_tor = 4;
  c.topology = topo;
  c.scheduler = sched;
  return c;
}

SweepPoint grid_point(const NetworkConfig& cfg, double load,
                      std::uint64_t seed) {
  SweepPoint p;
  p.config = cfg;
  p.load = load;
  p.seed = seed;
  p.duration = 300'000;  // 0.3 ms keeps the suite fast
  p.measure_from = p.duration / 2;
  return p;
}

/// A fig9-style grid: systems x loads, one seed per grid.
std::vector<SweepPoint> fig9_style_grid(std::uint64_t seed) {
  const NetworkConfig systems[] = {
      small(TopologyKind::kParallel, SchedulerKind::kNegotiator),
      small(TopologyKind::kThinClos, SchedulerKind::kNegotiator),
      small(TopologyKind::kThinClos, SchedulerKind::kOblivious),
  };
  std::vector<SweepPoint> points;
  for (const NetworkConfig& cfg : systems) {
    for (double load : {0.25, 0.75}) {
      points.push_back(grid_point(cfg, load, seed));
    }
  }
  return points;
}

void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.backlog, b.backlog);
  EXPECT_EQ(a.epoch_ns, b.epoch_ns);
  // Bitwise equality, not tolerance: the determinism contract is that the
  // thread count never changes a single result bit.
  EXPECT_EQ(a.goodput, b.goodput);
  EXPECT_EQ(a.mean_match_ratio, b.mean_match_ratio);
  EXPECT_EQ(a.mice.count, b.mice.count);
  EXPECT_EQ(a.mice.p99_ns, b.mice.p99_ns);
  EXPECT_EQ(a.mice.p50_ns, b.mice.p50_ns);
  EXPECT_EQ(a.mice.mean_ns, b.mice.mean_ns);
  EXPECT_EQ(a.mice.max_ns, b.mice.max_ns);
  EXPECT_EQ(a.all_flows.count, b.all_flows.count);
  EXPECT_EQ(a.all_flows.p99_ns, b.all_flows.p99_ns);
  EXPECT_EQ(a.all_flows.mean_ns, b.all_flows.mean_ns);
}

TEST(SweepEngine, ThreadsDefaultToAtLeastOne) {
  EXPECT_GE(SweepEngine::default_threads(), 1u);
  EXPECT_GE(SweepEngine(0).threads(), 1u);
  EXPECT_EQ(SweepEngine(3).threads(), 3u);
}

TEST(SweepEngine, DefaultThreadsReadsTheEnvironment) {
  const char* saved = std::getenv("NEG_BENCH_THREADS");
  const std::string restore = saved != nullptr ? saved : "";
  setenv("NEG_BENCH_THREADS", "3", 1);
  EXPECT_EQ(SweepEngine::default_threads(), 3u);
  if (saved != nullptr) {
    setenv("NEG_BENCH_THREADS", restore.c_str(), 1);
  } else {
    unsetenv("NEG_BENCH_THREADS");
  }
}

TEST(SweepEngineDeathTest, DefaultThreadsRejectsAMalformedSetting) {
  for (const char* bad : {"abc", "0", "-2", "4x", "", "1e3"}) {
    EXPECT_EXIT(
        {
          setenv("NEG_BENCH_THREADS", bad, 1);
          SweepEngine::default_threads();
        },
        ::testing::ExitedWithCode(2), "NEG_BENCH_THREADS")
        << "value '" << bad << "'";
  }
}

TEST(SweepEngine, ResultsIdenticalAtOneAndEightThreads) {
  // Two fig9-style grids with different seeds; each must merge to
  // bit-identical results regardless of the worker count.
  for (const std::uint64_t seed : {9ULL, 2024ULL}) {
    const std::vector<SweepPoint> grid = fig9_style_grid(seed);
    const auto sequential = SweepEngine(1).run(grid);
    const auto threaded = SweepEngine(8).run(grid);
    ASSERT_EQ(sequential.size(), grid.size());
    ASSERT_EQ(threaded.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
      ASSERT_TRUE(sequential[i].ok);
      ASSERT_TRUE(threaded[i].ok);
      expect_identical(sequential[i].result, threaded[i].result);
    }
    // The grid must produce real work, or the comparison proves nothing.
    EXPECT_GT(sequential.front().result.completed, 0u);
  }
}

TEST(SweepEngine, MatchesDirectStandardRun) {
  const SweepPoint point = grid_point(
      small(TopologyKind::kParallel, SchedulerKind::kNegotiator), 0.5, 42);
  const RunResult direct = run_standard_point(point);
  const auto outcomes = SweepEngine(4).run({point});
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_TRUE(outcomes[0].ok);
  expect_identical(direct, outcomes[0].result);
}

TEST(SweepEngine, SubmissionOrderSurvivesOutOfOrderCompletion) {
  // Later submissions finish first (decreasing sleep), so completion order
  // is roughly the reverse of submission order; the merged vector must
  // still be in submission order.
  const int kPoints = 12;
  std::vector<SweepPoint> points;
  for (int i = 0; i < kPoints; ++i) {
    SweepPoint p;
    p.body = [i](const SweepPoint&) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(2 * (kPoints - i)));
      SweepOutcome out;
      out.metrics = {static_cast<double>(i)};
      return out;
    };
    points.push_back(std::move(p));
  }
  const auto outcomes = SweepEngine(8).run(points);
  ASSERT_EQ(outcomes.size(), static_cast<std::size_t>(kPoints));
  for (int i = 0; i < kPoints; ++i) {
    ASSERT_TRUE(outcomes[i].ok);
    ASSERT_EQ(outcomes[i].metrics.size(), 1u);
    EXPECT_EQ(outcomes[i].metrics[0], static_cast<double>(i));
  }
}

TEST(SweepEngine, ThrowingPointIsIsolated) {
  std::vector<SweepPoint> points;
  for (int i = 0; i < 6; ++i) {
    SweepPoint p;
    if (i == 2) {
      p.body = [](const SweepPoint&) -> SweepOutcome {
        throw std::runtime_error("point exploded");
      };
    } else {
      p.body = [i](const SweepPoint&) {
        SweepOutcome out;
        out.metrics = {static_cast<double>(i)};
        return out;
      };
    }
    points.push_back(std::move(p));
  }
  for (const unsigned threads : {1u, 4u}) {
    const auto outcomes = SweepEngine(threads).run(points);
    ASSERT_EQ(outcomes.size(), 6u);
    EXPECT_FALSE(outcomes[2].ok);
    EXPECT_NE(outcomes[2].error.find("point exploded"), std::string::npos);
    for (int i = 0; i < 6; ++i) {
      if (i == 2) continue;
      ASSERT_TRUE(outcomes[i].ok) << "point " << i;
      EXPECT_EQ(outcomes[i].metrics[0], static_cast<double>(i));
    }
  }
}

TEST(SweepEngine, EmptyGrid) {
  EXPECT_TRUE(SweepEngine(4).run({}).empty());
}

TEST(SweepEngine, CustomBodiesRunConcurrently) {
  // With 4 workers, 4 tasks that each block until all 4 have started can
  // only finish if they really run in parallel.
  std::atomic<int> started{0};
  std::vector<SweepPoint> points;
  for (int i = 0; i < 4; ++i) {
    SweepPoint p;
    p.body = [&started](const SweepPoint&) {
      ++started;
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (started.load() < 4) {
        if (std::chrono::steady_clock::now() > deadline) {
          throw std::runtime_error("peers never started");
        }
        std::this_thread::yield();
      }
      return SweepOutcome{};
    };
    points.push_back(std::move(p));
  }
  const auto outcomes = SweepEngine(4).run(points);
  for (const auto& o : outcomes) EXPECT_TRUE(o.ok);
}

}  // namespace
}  // namespace negotiator
