#include "common/config.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace negotiator {
namespace {

TEST(Config, DefaultsMatchPaperSetup) {
  NetworkConfig c;
  EXPECT_EQ(c.num_tors, 128);
  EXPECT_EQ(c.ports_per_tor, 8);
  EXPECT_DOUBLE_EQ(c.port_rate().gbps(), 100.0);  // 400 Gbps * 2 / 8
  EXPECT_EQ(c.propagation_delay_ns, 2'000);
  EXPECT_NO_THROW(c.validate());
}

TEST(Config, EpochLengthMatchesPaper) {
  // §4.1: predefined 16 * 60ns = 0.96us, scheduled 30 * 90ns = 2.7us,
  // epoch 3.66us.
  NetworkConfig c;
  EXPECT_EQ(c.predefined_slots(), 16);
  EXPECT_EQ(c.epoch_length_ns(), 3'660);
  c.topology = TopologyKind::kThinClos;
  EXPECT_EQ(c.predefined_slots(), 16);
  EXPECT_EQ(c.epoch_length_ns(), 3'660);
}

TEST(Config, PayloadSizesMatchPaper) {
  // 50ns at 100 Gbps = 625 B minus 30 B header -> 595 B piggyback payload;
  // 90ns = 1125 B minus 10 B header -> 1115 B scheduled payload.
  NetworkConfig c;
  EXPECT_EQ(c.piggyback_payload_bytes(), 595);
  EXPECT_EQ(c.scheduled_payload_bytes(), 1115);
}

TEST(Config, GuardbandShareMatchesPaper) {
  // §4.1: guardbands account for 4.37% of the epoch.
  NetworkConfig c;
  const double share = 16.0 * 10.0 / 3660.0;
  EXPECT_NEAR(share, 0.0437, 0.0002);
}

TEST(Config, NoSpeedupHalvesPortRate) {
  NetworkConfig c;
  c.speedup = 1.0;
  EXPECT_DOUBLE_EQ(c.port_rate().gbps(), 50.0);
  EXPECT_GT(c.piggyback_payload_bytes(), 0);
  EXPECT_NO_THROW(c.validate());
}

TEST(Config, RejectsBadShapes) {
  NetworkConfig c;
  c.num_tors = 1;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = NetworkConfig{};
  c.topology = TopologyKind::kThinClos;
  c.num_tors = 127;  // not divisible by 8
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = NetworkConfig{};
  c.speedup = 0.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = NetworkConfig{};
  c.epoch.predefined_data_ns = 2;  // too short to carry the 30 B header
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(Config, RejectsMoreTorsThanAFlowEndpointHolds) {
  NetworkConfig c;
  c.num_tors = kMaxTors;
  EXPECT_NO_THROW(c.validate());
  c.num_tors = kMaxTors + 1;
  try {
    c.validate();
    FAIL() << "num_tors above kMaxTors must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("num_tors"), std::string::npos)
        << e.what();
  }
}

TEST(Config, RejectsRelayVariantOnParallel) {
  NetworkConfig c;
  c.scheduler = SchedulerKind::kNegotiatorSelectiveRelay;
  c.topology = TopologyKind::kParallel;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c.topology = TopologyKind::kThinClos;
  EXPECT_NO_THROW(c.validate());
}

// The oblivious fabric never reads the host plane, so enabling it there
// must fail loudly instead of running as if it were off.
TEST(Config, RejectsHostPlaneOnTheObliviousFabric) {
  NetworkConfig c;
  c.scheduler = SchedulerKind::kOblivious;
  c.host_plane.enabled = true;
  try {
    c.validate();
    FAIL() << "host plane accepted on the oblivious fabric";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("host_plane.enabled"),
              std::string::npos)
        << e.what();
  }
  c.scheduler = SchedulerKind::kNegotiator;
  EXPECT_NO_THROW(c.validate());
}

TEST(Config, RejectsIterativeWithoutIterations) {
  NetworkConfig c;
  c.scheduler = SchedulerKind::kNegotiatorIterative;
  c.variant.iterations = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

// Every floating-point knob must reject NaN (a plain `p < 0 || p > 1`
// range check lets it through), and the message must name the field.
TEST(Config, RejectsNaNInEveryFloatingPointField) {
  auto fields = [](NetworkConfig& c) {
    ControlFaultConfig& cf = c.control_fault;
    DataFaultConfig& df = c.data_fault;
    return std::vector<std::pair<std::string, double*>>{
        {"host_aggregate_gbps", &c.host_aggregate_gbps},
        {"speedup", &c.speedup},
        {"request_drop", &cf.request_drop},
        {"grant_drop", &cf.grant_drop},
        {"accept_drop", &cf.accept_drop},
        {"delay_prob", &cf.delay_prob},
        {"duplicate_prob", &cf.duplicate_prob},
        {"first_hop_drop", &df.first_hop_drop},
        {"relay_drop", &df.relay_drop},
        {"second_hop_drop", &df.second_hop_drop},
        {"corrupt_prob", &df.corrupt_prob},
        {"rto_epochs", &df.rto_epochs},
        {"rto_backoff", &df.rto_backoff},
        {"rto_cap_epochs", &df.rto_cap_epochs},
    };
  };
  NetworkConfig base;
  base.control_fault.enabled = true;
  base.data_fault.enabled = true;
  ASSERT_NO_THROW(base.validate());
  const std::size_t n = fields(base).size();
  for (std::size_t i = 0; i < n; ++i) {
    NetworkConfig c = base;
    const auto [field, value] = fields(c)[i];
    *value = std::numeric_limits<double>::quiet_NaN();
    try {
      c.validate();
      ADD_FAILURE() << field << " = NaN was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << field << ": " << e.what();
    }
  }
}

TEST(Config, SummaryMentionsKeyParameters) {
  NetworkConfig c;
  const std::string s = c.summary();
  EXPECT_NE(s.find("128 ToRs"), std::string::npos);
  EXPECT_NE(s.find("parallel"), std::string::npos);
  EXPECT_NE(s.find("negotiator"), std::string::npos);
}

TEST(Config, ToStringCoversAllKinds) {
  EXPECT_STREQ(to_string(TopologyKind::kParallel), "parallel");
  EXPECT_STREQ(to_string(TopologyKind::kThinClos), "thin-clos");
  EXPECT_STREQ(to_string(SchedulerKind::kNegotiator), "negotiator");
  EXPECT_STREQ(to_string(SchedulerKind::kOblivious), "oblivious");
  EXPECT_STREQ(to_string(SchedulerKind::kProjector), "projector");
}

}  // namespace
}  // namespace negotiator
