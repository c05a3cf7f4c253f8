// The umbrella header must be self-sufficient for a typical experiment.
#include "negotiator.h"

#include <gtest/gtest.h>

namespace {

TEST(PublicApi, UmbrellaHeaderRunsAnExperiment) {
  negotiator::NetworkConfig cfg;
  cfg.num_tors = 8;
  cfg.ports_per_tor = 4;
  negotiator::Runner runner(cfg);
  negotiator::WorkloadGenerator gen(
      negotiator::SizeDistribution::hadoop(), cfg.num_tors, cfg.host_rate(),
      0.5, negotiator::Rng(1));
  runner.add_flows(gen.generate(0, 200 * negotiator::kMicro));
  const auto result = runner.run(200 * negotiator::kMicro);
  EXPECT_GT(result.completed, 0u);
  EXPECT_GT(result.goodput, 0.0);
}

}  // namespace
