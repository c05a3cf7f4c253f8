// Randomized chaos property harness for the fault-scenario engine
// (engine/fault_scenario.h): hundreds of short seeded scenarios across
// both fabric families, both topologies, and every scheduler variant,
// each asserting three invariants —
//   1. byte conservation: every byte injected after the churn rewrite is
//      either delivered or still queued, and once drained, completed
//      flows account for the whole workload;
//   2. eventual drain: after the scenario's final repair the fabric
//      empties within a bounded number of extra epochs;
//   3. FaultPlane convergence: once healed, no port stays excluded and no
//      link stays failed.
// A deterministic subset is run twice to pin fixed-seed reproducibility
// under chaos timelines.
//
// A second sweep (NEG_LOSSY_CASES, default 24) runs the negotiator
// scheduler variants under the seeded lossy control plane
// (core/control_channel.h): randomized drop/delay/duplicate rates, the
// per-slot oblivious fallback on half the cases, and — on half the cases —
// a control brownout correlated with a ToR-group storm. Every lossy case
// sets validate_matching, so the per-epoch MatchingValidator asserts the
// no-double-booking invariants on every matching the lossy plane emits
// (NEG_ASSERT aborts in release too). The same conservation/drain/
// convergence invariants apply: loss strands bytes only while it starves
// the matching — stateless re-requests mean the fabric still drains.
//
// A third sweep (NEG_DATA_LOSS_CASES, default 24) runs every scheduler
// kind under the seeded lossy *data* plane (core/data_channel.h) with the
// end-host ARQ on (tor/host_transport.h): randomized per-hop drop rates,
// a data-loss window in every case, and — on half the cases — the full
// triple-fault composition (ToR-group storm + control brownout + data-loss
// window overlapping in time). Every case sets validate_matching, which
// also arms the byte-conservation auditor (engine/conservation_auditor.h):
// the ledger injected = stranded + unresolved + delivered + abandoned is
// asserted at every epoch boundary of every case. The drain invariant is
// strictly stronger here: ARQ must re-deliver every dropped chunk, so the
// fabric still completes every flow byte-for-byte.
//
// NEG_CHAOS_SCENARIOS overrides the scenario count (default 108; the
// nightly chaos job sweeps several hundred). The three case counts are
// parsed strictly (common/env.h): anything but a positive integer exits 2
// naming the variable. NEG_CHAOS_JSON, when set,
// writes an aggregate resilience-metrics JSON artifact after ALL sweeps
// (a gtest Environment tear-down), so the control-plane counters from the
// lossy sweep are part of the artifact.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/env.h"
#include "engine/fault_scenario.h"
#include "engine/runner.h"
#include "stats/resilience_recorder.h"
#include "workload/generator.h"
#include "workload/size_distribution.h"

namespace negotiator {
namespace {

constexpr SchedulerKind kAllSchedulers[] = {
    SchedulerKind::kNegotiator,
    SchedulerKind::kOblivious,
    SchedulerKind::kNegotiatorIterative,
    SchedulerKind::kNegotiatorInformativeSize,
    SchedulerKind::kNegotiatorInformativeHol,
    SchedulerKind::kNegotiatorStateful,
    SchedulerKind::kNegotiatorSelectiveRelay,
    SchedulerKind::kProjector,
    SchedulerKind::kCentralized,
};
constexpr std::size_t kSchedulerCount = std::size(kAllSchedulers);

int scenario_count() {
  if (const char* env = std::getenv("NEG_CHAOS_SCENARIOS")) {
    return parse_env_int("NEG_CHAOS_SCENARIOS", env, 1);
  }
  return 108;  // 12 per scheduler kind by default
}

/// The lossy-control-plane sweep scales independently of the link-fault
/// sweep: the nightly job raises it alongside NEG_CHAOS_SCENARIOS.
int lossy_case_count() {
  if (const char* env = std::getenv("NEG_LOSSY_CASES")) {
    return parse_env_int("NEG_LOSSY_CASES", env, 1);
  }
  return 24;  // 4 per negotiator variant by default
}

/// The lossy-data-plane sweep (auditor armed on every case); the nightly
/// chaos job raises it to 96.
int data_loss_case_count() {
  if (const char* env = std::getenv("NEG_DATA_LOSS_CASES")) {
    return parse_env_int("NEG_DATA_LOSS_CASES", env, 1);
  }
  return 24;
}

/// Aggregate resilience metrics across every sweep in the binary; the
/// NEG_CHAOS_JSON artifact is written from these after all tests ran.
struct SweepTotals {
  int scenarios{0};
  int lossy_cases{0};
  int data_loss_cases{0};
  std::int64_t failures{0};
  std::int64_t exclusion_churn{0};
  Bytes blackholed{0};
  Bytes injected{0};
  std::int64_t detection_count{0};
  double detection_sum{0};
  std::int64_t control_dropped{0};
  std::int64_t control_delayed{0};
  std::int64_t control_duplicated{0};
  std::int64_t degraded_slots{0};
  Bytes fallback_bytes{0};
  std::int64_t control_grants{0};
  std::int64_t control_accepts{0};
  std::int64_t data_dropped{0};
  std::int64_t data_corrupted{0};
  Bytes retransmitted_bytes{0};
  std::int64_t spurious_retx{0};
  std::int64_t rto_fires{0};
  std::int64_t conservation_checks{0};
};
SweepTotals g_totals;

/// Deterministically derives one scenario's whole universe — config,
/// workload, fault timeline — from its index.
struct ChaosCase {
  NetworkConfig cfg;
  FaultScenario scenario;
  std::uint64_t workload_seed;
  std::uint64_t install_seed;
  Nanos duration;
};

ChaosCase build_case(int index) {
  ChaosCase cc;
  Rng rng(0xc4a05'0000ull + static_cast<std::uint64_t>(index));
  NetworkConfig& cfg = cc.cfg;
  cfg.scheduler = kAllSchedulers[static_cast<std::size_t>(index) %
                                 kSchedulerCount];
  // Selective relay is thin-clos-only (config validation); everyone else
  // alternates topologies.
  cfg.topology = (cfg.scheduler == SchedulerKind::kNegotiatorSelectiveRelay ||
                  rng.next_below(2) == 0)
                     ? TopologyKind::kThinClos
                     : TopologyKind::kParallel;
  // Shapes both topologies accept (thin-clos needs N % P == 0).
  if (rng.next_below(3) == 0) {
    cfg.num_tors = 16;
    cfg.ports_per_tor = 8;
  } else {
    cfg.num_tors = 12;
    cfg.ports_per_tor = 4;
  }
  cfg.seed = 0x5eed + static_cast<std::uint64_t>(index);
  if (cfg.scheduler == SchedulerKind::kNegotiatorIterative) {
    cfg.variant.iterations = 2;
  }
  cc.duration = 150'000 + 50'000 * rng.next_below(3);  // 150-250 us
  cc.workload_seed = rng.next_u64();
  cc.install_seed = rng.next_u64();

  // Compose 1-3 fault processes; every composition repairs everything.
  bool any = false;
  if (rng.next_below(2) == 0) {
    StormSpec s;
    s.zone = rng.next_below(2) == 0 ? StormSpec::Zone::kTorGroup
                                    : StormSpec::Zone::kPortPlane;
    s.group_size = 4;
    s.bursts = 1 + static_cast<int>(rng.next_below(3));
    s.first_burst_at = 20'000 + 10'000 * rng.next_below(4);
    s.burst_interval = 60'000;
    s.burst_window = 10'000;
    s.outage_ns = 20'000 + 10'000 * rng.next_below(4);
    s.repair_stagger = 10'000;
    cc.scenario.storm(s);
    any = true;
  }
  if (rng.next_below(2) == 0) {
    FlapSpec f;
    f.link_fraction = 0.03 + 0.03 * static_cast<double>(rng.next_below(4));
    f.mtbf_ns = 30'000 + 10'000 * rng.next_below(4);
    if (rng.next_below(2) == 0) {
      f.fixed_down_ns = 200;  // sub-threshold blips
    } else {
      f.mttr_ns = 5'000 + 5'000 * rng.next_below(3);
    }
    f.start_ns = 10'000;
    f.end_ns = cc.duration;
    cc.scenario.flapping(f);
    any = true;
  }
  if (!any || rng.next_below(3) == 0) {
    ChurnSpec c;
    c.mode = rng.next_below(2) == 0 ? ChurnSpec::Mode::kRequeue
                                    : ChurnSpec::Mode::kAbort;
    c.events = 1 + static_cast<int>(rng.next_below(2));
    c.first_leave_at = 30'000 + 10'000 * rng.next_below(4);
    c.interval = 70'000;
    c.downtime_ns = 20'000 + 10'000 * rng.next_below(3);
    cc.scenario.host_churn(c);
  }
  return cc;
}

/// One lossy-control-plane case: a negotiator variant with the seeded
/// message-loss model installed, randomized rates, fallback on half the
/// cases, and (on half) a control brownout correlated with a ToR-group
/// storm — the paper's "control degrades with the fabric" composition.
ChaosCase build_lossy_case(int index) {
  constexpr SchedulerKind kNegotiatorVariants[] = {
      SchedulerKind::kNegotiator,
      SchedulerKind::kNegotiatorIterative,
      SchedulerKind::kNegotiatorInformativeSize,
      SchedulerKind::kNegotiatorInformativeHol,
      SchedulerKind::kNegotiatorStateful,
      SchedulerKind::kNegotiatorSelectiveRelay,
  };
  ChaosCase cc;
  Rng rng(0x1055'0000ull + static_cast<std::uint64_t>(index));
  NetworkConfig& cfg = cc.cfg;
  cfg.scheduler = kNegotiatorVariants[static_cast<std::size_t>(index) %
                                      std::size(kNegotiatorVariants)];
  cfg.topology = (cfg.scheduler == SchedulerKind::kNegotiatorSelectiveRelay ||
                  rng.next_below(2) == 0)
                     ? TopologyKind::kThinClos
                     : TopologyKind::kParallel;
  if (rng.next_below(3) == 0) {
    cfg.num_tors = 16;
    cfg.ports_per_tor = 8;
  } else {
    cfg.num_tors = 12;
    cfg.ports_per_tor = 4;
  }
  cfg.seed = 0x10ee + static_cast<std::uint64_t>(index);
  if (cfg.scheduler == SchedulerKind::kNegotiatorIterative) {
    cfg.variant.iterations = 2;
  }
  cc.duration = 150'000 + 50'000 * rng.next_below(3);
  cc.workload_seed = rng.next_u64();
  cc.install_seed = rng.next_u64();

  cfg.control_fault.enabled = true;
  const double drop = 0.1 + 0.1 * static_cast<double>(rng.next_below(5));
  cfg.control_fault.request_drop = drop;
  cfg.control_fault.grant_drop = drop;
  cfg.control_fault.accept_drop = drop;
  cfg.control_fault.delay_prob = 0.1;
  cfg.control_fault.max_delay_epochs = 1 + static_cast<int>(rng.next_below(3));
  cfg.control_fault.duplicate_prob = 0.05;
  cfg.control_fault.fallback = rng.next_below(2) == 0;
  // Every lossy matching is validated per epoch (aborts on double-booking).
  cfg.validate_matching = true;

  // Half the cases correlate a control brownout with a ToR-group storm:
  // the control plane degrades exactly while the data plane loses a zone.
  if (rng.next_below(2) == 0) {
    StormSpec s;
    s.zone = StormSpec::Zone::kTorGroup;
    s.group_size = 4;
    s.bursts = 1;
    s.first_burst_at = 30'000 + 10'000 * rng.next_below(3);
    s.burst_window = 10'000;
    s.outage_ns = 30'000 + 10'000 * rng.next_below(3);
    s.repair_stagger = 10'000;
    cc.scenario.storm(s);
    ControlBrownoutSpec b;
    b.windows = 1;
    b.first_at = s.first_burst_at;
    b.duration_ns = s.outage_ns;
    b.start_jitter = 5'000;
    b.drop = 0.9;
    cc.scenario.control_brownout(b);
  }
  return cc;
}

/// One lossy-data-plane case: any scheduler kind with the seeded chunk
/// drop/corruption model and the end-host ARQ installed, a data-loss
/// window in every case, and — on half — the triple-fault composition
/// (ToR-group storm + control brownout + data-loss window overlapping).
/// validate_matching arms the byte-conservation auditor on every case.
ChaosCase build_data_loss_case(int index) {
  ChaosCase cc;
  Rng rng(0xda7a'0000ull + static_cast<std::uint64_t>(index));
  NetworkConfig& cfg = cc.cfg;
  cfg.scheduler = kAllSchedulers[static_cast<std::size_t>(index) %
                                 kSchedulerCount];
  cfg.topology = (cfg.scheduler == SchedulerKind::kNegotiatorSelectiveRelay ||
                  rng.next_below(2) == 0)
                     ? TopologyKind::kThinClos
                     : TopologyKind::kParallel;
  if (rng.next_below(3) == 0) {
    cfg.num_tors = 16;
    cfg.ports_per_tor = 8;
  } else {
    cfg.num_tors = 12;
    cfg.ports_per_tor = 4;
  }
  cfg.seed = 0xda7a + static_cast<std::uint64_t>(index);
  if (cfg.scheduler == SchedulerKind::kNegotiatorIterative) {
    cfg.variant.iterations = 2;
  }
  cc.duration = 150'000 + 50'000 * rng.next_below(3);
  cc.workload_seed = rng.next_u64();
  cc.install_seed = rng.next_u64();

  cfg.data_fault.enabled = true;
  cfg.data_fault.arq = true;
  const double drop = 0.02 + 0.04 * static_cast<double>(rng.next_below(4));
  cfg.data_fault.first_hop_drop = drop;
  cfg.data_fault.relay_drop = drop;
  cfg.data_fault.second_hop_drop = drop;
  cfg.data_fault.corrupt_prob = 0.01;
  // Arms the per-epoch MatchingValidator AND the conservation auditor.
  cfg.validate_matching = true;

  DataLossSpec d;
  d.windows = 1 + static_cast<int>(rng.next_below(2));
  d.first_at = 30'000 + 10'000 * rng.next_below(3);
  d.interval = 70'000;
  d.duration_ns = 30'000 + 10'000 * rng.next_below(3);
  d.start_jitter = 5'000;
  d.drop = 0.5 + 0.1 * static_cast<double>(rng.next_below(4));
  cc.scenario.data_loss(d);

  // Half the cases run the full triple-fault composition: a ToR-group
  // storm and a control brownout land on top of the data-loss window, so
  // links, control messages, and data chunks all degrade at once. The
  // brownout needs the lossy control channel, which only the
  // negotiator-matching family carries — elsewhere it stays a no-op
  // (composability contract), so the storm alone joins the window.
  if (rng.next_below(2) == 0) {
    StormSpec s;
    s.zone = StormSpec::Zone::kTorGroup;
    s.group_size = 4;
    s.bursts = 1;
    s.first_burst_at = d.first_at;
    s.burst_window = 10'000;
    s.outage_ns = d.duration_ns;
    s.repair_stagger = 10'000;
    cc.scenario.storm(s);
    const bool negotiator_family =
        cfg.scheduler != SchedulerKind::kOblivious &&
        cfg.scheduler != SchedulerKind::kProjector &&
        cfg.scheduler != SchedulerKind::kCentralized;
    if (negotiator_family) {
      cfg.control_fault.enabled = true;
      cfg.control_fault.request_drop = 0.1;
      cfg.control_fault.grant_drop = 0.1;
      cfg.control_fault.accept_drop = 0.1;
    }
    ControlBrownoutSpec b;
    b.windows = 1;
    b.first_at = d.first_at;
    b.duration_ns = d.duration_ns;
    b.start_jitter = 5'000;
    b.drop = 0.9;
    cc.scenario.control_brownout(b);
  }
  return cc;
}

struct ChaosOutcome {
  std::size_t flows{0};
  std::size_t completed{0};
  Bytes injected{0};
  Bytes backlog{0};
  std::uint64_t events{0};
  std::int64_t conservation_checks{0};
  // Counters the fabric and its components own, copied out before the
  // fabric is destroyed (0 where the component is absent).
  ResilienceRecorder rec;
  std::int64_t control_dropped{0};
  std::int64_t control_delayed{0};
  std::int64_t control_duplicated{0};
  std::int64_t degraded_slots{0};
  Bytes fallback_bytes{0};
  std::int64_t data_dropped{0};
  std::int64_t data_corrupted{0};
  Bytes retransmitted_bytes{0};
  std::int64_t spurious_retx{0};
  std::int64_t rto_fires{0};

  explicit ChaosOutcome(const NetworkConfig& cfg)
      : rec(cfg.num_tors, cfg.ports_per_tor) {}
};

ChaosOutcome run_case(const ChaosCase& cc, int index) {
  ChaosOutcome out(cc.cfg);
  Runner runner(cc.cfg);
  WorkloadGenerator gen(SizeDistribution::hadoop(), cc.cfg.num_tors,
                        cc.cfg.host_rate(), 0.5, Rng(cc.workload_seed));
  std::vector<Flow> flows = gen.generate(0, cc.duration);
  Rng install_rng(cc.install_seed);
  const ScenarioTimeline tl = cc.scenario.install(runner.fabric(),
                                                  install_rng);
  EXPECT_TRUE(tl.repairs_everything)
      << "chaos compositions must always heal (case " << index << ")";
  FaultScenario::rewrite_flows(flows, tl);
  for (const Flow& f : flows) out.injected += f.size;
  out.flows = flows.size();
  runner.add_flows(flows);

  FabricSim& fab = runner.fabric();
  fab.run_until(cc.duration);

  // Invariant 2: eventual drain. Run past the final repair, then give the
  // fabric a bounded number of settle rounds to empty.
  fab.run_until(std::max(cc.duration, tl.last_transition + 1));
  const Nanos round = 500 * cc.cfg.epoch_length_ns();
  for (int r = 0; r < 40 && (fab.total_backlog() > 0 ||
                             fab.excluded_ports() > 0);
       ++r) {
    fab.run_until(fab.now() + round);
  }
  out.completed = fab.fct().completed();
  out.backlog = fab.total_backlog();
  out.events = fab.events_executed();
  out.rec = fab.resilience();
  if (const auto* neg = dynamic_cast<const NegotiatorFabric*>(&fab)) {
    if (const ControlChannel* c = neg->control_channel()) {
      out.control_dropped = c->dropped();
      out.control_delayed = c->delayed();
      out.control_duplicated = c->duplicated();
    }
    out.degraded_slots = neg->degraded_slots();
    out.fallback_bytes = neg->fallback_bytes();
  }
  if (const DataChannel* d = fab.data_channel()) {
    out.data_dropped = d->dropped();
    out.data_corrupted = d->corrupted();
  }
  if (const HostTransport* t = fab.host_transport()) {
    out.retransmitted_bytes = t->retransmitted_bytes();
    out.spurious_retx = t->spurious_retx();
    out.rto_fires = t->rto_fires();
  }

  // Invariant 1: byte conservation — everything injected was delivered.
  EXPECT_EQ(out.backlog, 0)
      << "case " << index << " failed to drain after the final repair";
  EXPECT_EQ(out.completed, out.flows)
      << "case " << index << " lost or duplicated flows";
  Bytes delivered = 0;
  for (const FctSample& s : fab.fct().samples()) delivered += s.size;
  EXPECT_EQ(delivered, out.injected)
      << "case " << index << " delivered bytes != injected bytes";

  // Invariant 3: FaultPlane convergence after healing.
  EXPECT_EQ(fab.links().failed_count(), 0)
      << "case " << index << ": scenario left links down";
  EXPECT_EQ(fab.excluded_ports(), 0)
      << "case " << index << ": exclusions did not converge";
  EXPECT_EQ(out.rec.failures(), static_cast<std::int64_t>(tl.failure_count()));
  EXPECT_EQ(out.rec.repairs(), static_cast<std::int64_t>(
                                  tl.link_events.size() - tl.failure_count()));
  EXPECT_EQ(out.rec.exclusions(), out.rec.inclusions())
      << "case " << index << ": exclusion churn did not settle";

  // Data-plane cases: the byte-conservation auditor must have balanced
  // its ledger at every epoch boundary (it aborts the run otherwise), and
  // ARQ must leave nothing abandoned — the drain above is byte-exact.
  if (cc.cfg.data_fault.enabled) {
    const ConservationAuditor* auditor = fab.conservation_auditor();
    EXPECT_NE(auditor, nullptr) << "case " << index << ": auditor not armed";
    if (auditor != nullptr) {
      out.conservation_checks = auditor->checks();
      EXPECT_GT(auditor->checks(), 0)
          << "case " << index << ": the auditor never ran";
    }
    if (const HostTransport* t = fab.host_transport()) {
      EXPECT_EQ(t->abandoned_bytes(), 0)
          << "case " << index << ": ARQ gave up on "
          << t->abandoned_units() << " units (rto_fires "
          << t->rto_fires() << ", max_backoff "
          << t->max_backoff_reached() << ")";
      EXPECT_EQ(t->unresolved_bytes(), 0)
          << "case " << index << ": units still pending after the drain";
    }
  }
  return out;
}

/// Folds one case's recorder and component counters into the binary-wide
/// aggregate the NEG_CHAOS_JSON artifact is written from.
void accumulate(const ChaosOutcome& out) {
  g_totals.failures += out.rec.failures();
  g_totals.exclusion_churn += out.rec.exclusion_churn();
  g_totals.blackholed += out.rec.blackholed_bytes();
  g_totals.injected += out.injected;
  g_totals.detection_count += out.rec.detection().count;
  g_totals.detection_sum += static_cast<double>(out.rec.detection().sum);
  g_totals.control_dropped += out.control_dropped;
  g_totals.control_delayed += out.control_delayed;
  g_totals.control_duplicated += out.control_duplicated;
  g_totals.degraded_slots += out.degraded_slots;
  g_totals.fallback_bytes += out.fallback_bytes;
  g_totals.control_grants += out.rec.control_grants();
  g_totals.control_accepts += out.rec.control_accepts();
  g_totals.data_dropped += out.data_dropped;
  g_totals.data_corrupted += out.data_corrupted;
  g_totals.retransmitted_bytes += out.retransmitted_bytes;
  g_totals.spurious_retx += out.spurious_retx;
  g_totals.rto_fires += out.rto_fires;
  g_totals.conservation_checks += out.conservation_checks;
}

/// Writes the aggregate artifact after every sweep has run, so the
/// control-plane counters from the lossy sweep are included.
class ChaosJsonEnvironment final : public ::testing::Environment {
 public:
  void TearDown() override {
    const char* path = std::getenv("NEG_CHAOS_JSON");
    if (path == nullptr) return;
    std::FILE* f = std::fopen(path, "w");
    ASSERT_NE(f, nullptr) << "cannot write " << path;
    const SweepTotals& t = g_totals;
    std::fprintf(
        f,
        "{\n  \"scenarios\": %d,\n  \"lossy_cases\": %d,\n"
        "  \"data_loss_cases\": %d,\n"
        "  \"total_failures\": %lld,\n"
        "  \"total_exclusion_churn\": %lld,\n"
        "  \"total_blackholed_bytes\": %lld,\n"
        "  \"total_injected_bytes\": %lld,\n"
        "  \"detection_samples\": %lld,\n"
        "  \"detection_mean_ns\": %.1f,\n"
        "  \"total_control_dropped\": %lld,\n"
        "  \"total_control_delayed\": %lld,\n"
        "  \"total_control_duplicated\": %lld,\n"
        "  \"total_degraded_slots\": %lld,\n"
        "  \"total_fallback_bytes\": %lld,\n"
        "  \"total_control_grants\": %lld,\n"
        "  \"total_control_accepts\": %lld,\n"
        "  \"total_data_dropped\": %lld,\n"
        "  \"total_data_corrupted\": %lld,\n"
        "  \"total_retransmitted_bytes\": %lld,\n"
        "  \"total_spurious_retx\": %lld,\n"
        "  \"total_rto_fires\": %lld,\n"
        "  \"total_conservation_checks\": %lld\n}\n",
        t.scenarios, t.lossy_cases, t.data_loss_cases,
        static_cast<long long>(t.failures),
        static_cast<long long>(t.exclusion_churn),
        static_cast<long long>(t.blackholed),
        static_cast<long long>(t.injected),
        static_cast<long long>(t.detection_count),
        t.detection_count > 0
            ? t.detection_sum / static_cast<double>(t.detection_count)
            : 0.0,
        static_cast<long long>(t.control_dropped),
        static_cast<long long>(t.control_delayed),
        static_cast<long long>(t.control_duplicated),
        static_cast<long long>(t.degraded_slots),
        static_cast<long long>(t.fallback_bytes),
        static_cast<long long>(t.control_grants),
        static_cast<long long>(t.control_accepts),
        static_cast<long long>(t.data_dropped),
        static_cast<long long>(t.data_corrupted),
        static_cast<long long>(t.retransmitted_bytes),
        static_cast<long long>(t.spurious_retx),
        static_cast<long long>(t.rto_fires),
        static_cast<long long>(t.conservation_checks));
    std::fclose(f);
  }
};
const auto* const kJsonEnv =
    ::testing::AddGlobalTestEnvironment(new ChaosJsonEnvironment);

TEST(ChaosScenarios, InvariantsHoldAcrossSeededScenarioSweep) {
  const int count = scenario_count();
  for (int i = 0; i < count; ++i) {
    const ChaosCase cc = build_case(i);
    const ChaosOutcome out = run_case(cc, i);
    accumulate(out);
    if (::testing::Test::HasFailure()) {
      FAIL() << "stopping the sweep at case " << i << " ("
             << cc.cfg.summary() << ")";
    }
  }
  g_totals.scenarios = count;
  EXPECT_GT(g_totals.failures, 0) << "the sweep never injected a fault";
}

TEST(ChaosScenarios, LossyControlPlaneSweepHoldsInvariants) {
  // The same conservation/drain/convergence invariants as the link-fault
  // sweep, now with the control plane itself lossy; the per-epoch
  // MatchingValidator (validate_matching is set on every case) aborts the
  // run on any tx/rx double-booking, so a green sweep certifies every
  // matching the lossy plane emitted. Loss must strand traffic only
  // transiently: stateless re-requests re-form the matching, so the
  // fabric still drains after the horizon.
  const int count = lossy_case_count();
  std::int64_t dropped = 0;
  std::int64_t fallback_cases = 0;
  for (int i = 0; i < count; ++i) {
    const ChaosCase cc = build_lossy_case(i);
    const ChaosOutcome out = run_case(cc, i);
    accumulate(out);
    dropped += out.control_dropped;
    if (cc.cfg.control_fault.fallback) ++fallback_cases;
    if (::testing::Test::HasFailure()) {
      FAIL() << "stopping the lossy sweep at case " << i << " ("
             << cc.cfg.summary() << ")";
    }
  }
  g_totals.lossy_cases = count;
  EXPECT_GT(dropped, 0) << "the lossy sweep never dropped a message";
  EXPECT_GT(fallback_cases, 0)
      << "the lossy sweep never exercised the oblivious fallback";
}

TEST(ChaosScenarios, CombinedFaultDataLossSweepHoldsInvariants) {
  // The strongest drain invariant in the harness: with ARQ on, a lossy
  // data plane — composed with storms and control brownouts on half the
  // cases — must still deliver every injected byte (run_case asserts
  // delivered == injected and completed == flows after the drain horizon),
  // with the byte-conservation auditor balancing its ledger at every epoch
  // boundary along the way.
  const int count = data_loss_case_count();
  std::int64_t dropped = 0;
  std::int64_t retransmitted = 0;
  std::int64_t checks = 0;
  int triple_fault_cases = 0;
  for (int i = 0; i < count; ++i) {
    const ChaosCase cc = build_data_loss_case(i);
    const ChaosOutcome out = run_case(cc, i);
    accumulate(out);
    dropped += out.data_dropped;
    retransmitted += out.retransmitted_bytes;
    checks += out.conservation_checks;
    if (out.rec.failures() > 0) ++triple_fault_cases;
    if (::testing::Test::HasFailure()) {
      FAIL() << "stopping the data-loss sweep at case " << i << " ("
             << cc.cfg.summary() << ")";
    }
  }
  g_totals.data_loss_cases = count;
  EXPECT_GT(dropped, 0) << "the data-loss sweep never dropped a chunk";
  EXPECT_GT(retransmitted, 0) << "ARQ never retransmitted";
  EXPECT_GT(checks, 0) << "the conservation auditor never ran";
  EXPECT_GT(triple_fault_cases, 0)
      << "the sweep never composed a storm with the data-loss window";
}

TEST(ChaosScenarios, SweepCoversEverySchedulerAndBothTopologies) {
  const int count = scenario_count();
  bool sched_seen[kSchedulerCount] = {};
  bool topo_seen[2] = {};
  for (int i = 0; i < count; ++i) {
    const ChaosCase cc = build_case(i);
    for (std::size_t s = 0; s < kSchedulerCount; ++s) {
      if (cc.cfg.scheduler == kAllSchedulers[s]) sched_seen[s] = true;
    }
    topo_seen[cc.cfg.topology == TopologyKind::kThinClos ? 1 : 0] = true;
  }
  for (std::size_t s = 0; s < kSchedulerCount; ++s) {
    EXPECT_TRUE(sched_seen[s]) << "scheduler kind " << s << " never swept";
  }
  EXPECT_TRUE(topo_seen[0] && topo_seen[1]);
}

TEST(ChaosScenarios, FixedSeedScenariosAreReproducible) {
  // A chaotic timeline is still a pure function of its seeds: re-running
  // the same case must replay the identical simulation.
  for (const int i : {0, 3, 7, 11, 16}) {
    const ChaosCase cc = build_case(i);
    const ChaosOutcome a = run_case(cc, i);
    const ChaosOutcome b = run_case(cc, i);
    EXPECT_EQ(a.completed, b.completed) << "case " << i;
    EXPECT_EQ(a.injected, b.injected) << "case " << i;
    EXPECT_EQ(a.events, b.events) << "case " << i;
    EXPECT_EQ(a.rec.exclusion_churn(), b.rec.exclusion_churn())
        << "case " << i;
    EXPECT_EQ(a.rec.blackholed_bytes(), b.rec.blackholed_bytes())
        << "case " << i;
  }
}

}  // namespace
}  // namespace negotiator
