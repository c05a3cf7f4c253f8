// negbench: one repetition of one benchmark workload, in one process.
//
//   negbench --workload NAME --seed N [--mode plain|trace] [--threads K]
//            [--horizon-scale F] [--trace-out PATH]
//
// Prints exactly one JSON object on stdout and exits 0, or prints the reason
// on stderr and exits non-zero when an argument is bad or an output check
// fails. benchmark/run.py drives it; see benchmark/README.md for the
// workloads, the metrics and why they were chosen.
//
// plain  The untraced measurement behind every end-to-end metric: generate
//        the flow trace, build the fabric, admit the flows (together the
//        set-up), then one Runner::run over the whole horizon.
// trace  The per-layer measurement. Same inputs, but the run is replayed by
//        hand as one run_until per epoch length, each call a span, with the
//        layers' public counters read between calls. For negotiator fabrics
//        a shadow scheduler is timed against the live demand (see
//        run_traced). Spans are kept in memory and written to --trace-out
//        when the run ends.
//
// Both modes print the run's result fingerprint, so run.py can check that
// tracing (and sharding, via --threads) did not change what was simulated.
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/fault_detector.h"
#include "core/negotiator_scheduler.h"
#include "engine/network.h"
#include "engine/runner.h"
#include "stats/percentile.h"
#include "topo/topology_factory.h"
#include "workload/generator.h"
#include "workload/incast.h"
#include "workload/size_distribution.h"

namespace {

using namespace negotiator;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One benchmark workload. All are open-loop: the whole Poisson flow trace
/// is generated from the seed before the fabric exists, so arrivals never
/// wait on the simulator.
struct Workload {
  const char* name;
  TopologyKind topology;
  SchedulerKind scheduler;
  int num_tors;
  double load;        // Hadoop background load (fraction of host aggregate)
  double horizon_ms;  // simulated; statistics cover the second half
  bool incast;        // adds the Fig. 13a incast mix
  bool lossy;         // lossy control and data planes, ARQ on
};

constexpr Workload kWorkloads[] = {
    {"fig9_negotiator_parallel", TopologyKind::kParallel,
     SchedulerKind::kNegotiator, 128, 0.75, 5.0, false, false},
    {"fig9_oblivious_thinclos", TopologyKind::kThinClos,
     SchedulerKind::kOblivious, 128, 0.5, 2.5, false, false},
    {"incast_negotiator_thinclos", TopologyKind::kThinClos,
     SchedulerKind::kNegotiator, 128, 0.5, 4.0, true, false},
    {"lossy_negotiator_parallel", TopologyKind::kParallel,
     SchedulerKind::kNegotiator, 64, 0.5, 4.0, false, true},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// The paper's evaluation setup (§4.1, PIAS on) for workload `w`. Every
/// random stream of the run derives from `seed`.
NetworkConfig make_config(const Workload& w, std::uint64_t seed,
                          int threads) {
  NetworkConfig cfg;
  cfg.topology = w.topology;
  cfg.scheduler = w.scheduler;
  cfg.num_tors = w.num_tors;
  cfg.pias.enabled = true;
  cfg.seed = seed;
  cfg.sim_threads = threads;
  if (w.lossy) {
    // The drop/delay/duplicate and per-hop drop/corruption mixes the lossy
    // goldens pin (tests/test_seed_equivalence.cpp), fallback and ARQ on.
    cfg.control_fault.enabled = true;
    cfg.control_fault.request_drop = 0.25;
    cfg.control_fault.grant_drop = 0.25;
    cfg.control_fault.accept_drop = 0.25;
    cfg.control_fault.delay_prob = 0.1;
    cfg.control_fault.max_delay_epochs = 2;
    cfg.control_fault.duplicate_prob = 0.05;
    cfg.control_fault.fallback = true;
    cfg.data_fault.enabled = true;
    cfg.data_fault.first_hop_drop = 0.05;
    cfg.data_fault.relay_drop = 0.05;
    cfg.data_fault.second_hop_drop = 0.05;
    cfg.data_fault.corrupt_prob = 0.01;
    cfg.data_fault.arq = true;
  }
  return cfg;
}

/// One timed interval; `parent` indexes the causing span (-1: root).
struct Span {
  const char* name;
  Clock::time_point start;
  Clock::time_point end;
  int parent;
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  int add(const char* name, Clock::time_point start, Clock::time_point end,
          int parent) {
    spans_.push_back(Span{name, start, end, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  void set_end(int id, Clock::time_point end) {
    spans_[static_cast<std::size_t>(id)].end = end;
  }
  /// One JSON object per line: id, parent, name, start/end in µs since
  /// process start. Returns false when the file cannot be written.
  bool write(const std::string& path, const std::string& workload) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"trace\": \"%s\", \"id\": %zu, \"parent\": %d, "
                   "\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f}\n",
                   workload.c_str(), i, s.parent, s.name,
                   seconds_between(origin_, s.start) * 1e6,
                   seconds_between(origin_, s.end) * 1e6);
    }
    return std::fclose(f) == 0;
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

std::vector<Flow> generate_flows(const Workload& w, const NetworkConfig& cfg,
                                 std::uint64_t seed, Nanos horizon) {
  WorkloadGenerator gen(SizeDistribution::hadoop(), cfg.num_tors,
                        cfg.host_rate(), w.load, Rng(seed));
  std::vector<Flow> flows = gen.generate(0, horizon);
  if (w.incast) {
    // Fig. 13a: degree-20 incasts of 1 KB flows using 2% of the bandwidth.
    Rng rng(seed + 1);
    const std::vector<Flow> incasts = make_incast_mix(
        cfg.num_tors, 20, 1_KB, 0.02, cfg.host_rate(), 0, horizon, rng,
        static_cast<FlowId>(flows.size()), /*group=*/1);
    flows.insert(flows.end(), incasts.begin(), incasts.end());
  }
  return flows;
}

/// The set-up both modes share and time: generate the inputs, build the
/// fabric, admit the flows. With a tracer, each step is also a span.
struct SetUp {
  NetworkConfig cfg;
  Nanos horizon;
  std::vector<Flow> flows;
  std::unique_ptr<Runner> runner;
  double generate_s{0};
  double construct_s{0};
  double admit_s{0};

  SetUp(const Workload& w, std::uint64_t seed, int threads,
        double horizon_scale, Tracer* tracer = nullptr, int parent = -1)
      : cfg(make_config(w, seed, threads)),
        horizon(static_cast<Nanos>(w.horizon_ms * kMilli / horizon_scale)) {
    auto step = [&](const char* name, auto&& body) {
      const auto t0 = Clock::now();
      body();
      const auto t1 = Clock::now();
      if (tracer != nullptr) tracer->add(name, t0, t1, parent);
      return seconds_between(t0, t1);
    };
    generate_s = step("workload.generate", [&] {
      flows = generate_flows(w, cfg, seed, horizon);
    });
    construct_s = step("engine.construct",
                       [&] { runner = std::make_unique<Runner>(cfg); });
    admit_s = step("engine.admit", [&] { runner->add_flows(flows); });
  }

  FabricSim& fabric() { return runner->fabric(); }
  double total_s() const { return generate_s + construct_s + admit_s; }
};

/// FNV-1a over the run's complete observable output: every FCT sample,
/// the summaries, and the executed-event count — the recipe of
/// bench_perf_engine's result_fingerprint and the seed-equivalence goldens.
std::uint64_t result_fingerprint(FabricSim& fabric, const RunResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t bits) {
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  auto mix_double = [&mix](double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    mix(bits);
  };
  for (const FctSample& s : fabric.fct().samples()) {
    mix(static_cast<std::uint64_t>(s.flow));
    mix(static_cast<std::uint64_t>(s.size));
    mix(static_cast<std::uint64_t>(s.arrival));
    mix(static_cast<std::uint64_t>(s.fct));
    mix(static_cast<std::uint64_t>(s.group));
  }
  mix(static_cast<std::uint64_t>(r.completed));
  mix(static_cast<std::uint64_t>(r.backlog));
  mix_double(r.goodput);
  mix_double(r.mean_match_ratio);
  mix_double(r.mice.p99_ns);
  mix_double(r.mice.mean_ns);
  mix_double(r.all_flows.p99_ns);
  mix_double(r.all_flows.p50_ns);
  mix_double(r.all_flows.mean_ns);
  mix_double(r.all_flows.max_ns);
  mix(fabric.events_executed());
  return h;
}

/// Checks the simulator's outputs against its inputs, independently of the
/// simulator: every completed flow was generated, completed once, carries
/// its generated size/arrival/group, and took at least one propagation
/// delay; the summaries are sane. Returns an empty string when all hold.
std::string check_outputs(FabricSim& fabric, const NetworkConfig& cfg,
                          const std::vector<Flow>& flows,
                          const RunResult& r) {
  const auto& samples = fabric.fct().samples();
  if (samples.empty()) return "no flow completed";
  if (r.completed != samples.size()) return "completed != sample count";
  const Nanos latest_completion =
      fabric.now() + cfg.propagation_delay_ns + cfg.epoch_length_ns();
  std::vector<bool> seen(flows.size(), false);
  for (const FctSample& s : samples) {
    if (s.flow < 0 || static_cast<std::size_t>(s.flow) >= flows.size()) {
      return "completed flow id " + std::to_string(s.flow) + " not generated";
    }
    const Flow& f = flows[static_cast<std::size_t>(s.flow)];
    if (f.id != s.flow) return "flow ids are not dense";
    if (seen[static_cast<std::size_t>(s.flow)]) {
      return "flow " + std::to_string(s.flow) + " completed twice";
    }
    seen[static_cast<std::size_t>(s.flow)] = true;
    if (s.size != f.size || s.arrival != f.arrival || s.group != f.group) {
      return "flow " + std::to_string(s.flow) + " sample differs from input";
    }
    // Deliveries land one propagation delay after their slot, so the
    // newest completions lie slightly ahead of the fabric clock.
    if (s.fct < cfg.propagation_delay_ns ||
        s.arrival + s.fct > latest_completion) {
      return "flow " + std::to_string(s.flow) + " has an impossible FCT";
    }
  }
  if (!(r.goodput > 0.0) || r.goodput > cfg.speedup) {
    return "goodput " + std::to_string(r.goodput) + " out of range";
  }
  if (!(r.mice.p99_ns > 0.0) || r.backlog < 0) return "bad summary";
  return "";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// Minimal single-line JSON object writer (numbers keep all digits).
class JsonLine {
 public:
  void num(const char* key, double v) {
    if (!std::isfinite(v)) v = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    field(key, buf);
  }
  void str(const char* key, const std::string& v) {
    field(key, "\"" + v + "\"");
  }
  void raw(const char* key, const std::string& v) { field(key, v); }
  std::string done() const { return "{" + body_ + "}"; }
  /// This object's fields followed by those of `more`.
  std::string done(const JsonLine& more) const {
    if (more.body_.empty()) return done();
    return "{" + body_ + (body_.empty() ? "" : ", ") + more.body_ + "}";
  }

 private:
  void field(const char* key, const std::string& v) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"";
    body_ += key;
    body_ += "\": ";
    body_ += v;
  }
  std::string body_;
};

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Checks the run's outputs, unless `error` already names a failed check
/// of the mode's own, and when they hold prints the run's JSON line with the
/// mode's `fields` appended. Returns the exit code.
int report(const Workload& w, std::uint64_t seed, const char* mode,
           SetUp& s, const RunResult& r, std::string error,
           const JsonLine& fields) {
  FabricSim& fabric = s.fabric();
  if (error.empty()) error = check_outputs(fabric, s.cfg, s.flows, r);
  if (!error.empty()) {
    std::fprintf(stderr, "negbench: %s: output check failed: %s\n", w.name,
                 error.c_str());
    return 1;
  }
  Bytes delivered = 0;
  for (const FctSample& f : fabric.fct().samples()) delivered += f.size;
  JsonLine out;
  out.str("workload", w.name);
  out.num("seed", static_cast<double>(seed));
  out.str("mode", mode);
  out.str("fingerprint", hex64(result_fingerprint(fabric, r)));
  out.num("sim_ns", static_cast<double>(s.horizon));
  out.num("flows", static_cast<double>(s.flows.size()));
  out.num("delivered_bytes", static_cast<double>(delivered));
  out.num("mice_fct_p99_us", r.mice.p99_ns / 1e3);
  out.num("goodput", r.goodput);
  out.num("setup_s", s.total_s());
  std::printf("%s\n", out.done(fields).c_str());
  return 0;
}

// ------------------------------------------------------------------ trace

/// Least-squares slope of y over x; 0 with fewer than two points.
double slope(const std::vector<double>& x, const std::vector<double>& y) {
  const std::size_t n = x.size();
  if (n < 2) return 0.0;
  const double mx = mean(x);
  const double my = mean(y);
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    num += (x[i] - mx) * (y[i] - my);
    den += (x[i] - mx) * (x[i] - mx);
  }
  return den > 0.0 ? num / den : 0.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The traced replay of Runner::run (see the file comment). Reads only
/// public interfaces of the layers, from outside.
///
/// Shadow scheduler: a negotiator fabric's scheduling compute runs inside
/// run_until and cannot be timed from outside, so a second scheduler of the
/// same kind (make_topology + make_negotiator_scheduler + a quiescent
/// FaultPlane) runs begin_epoch once per step against the fabric's live
/// DemandView, and delivers its own outgoing pairs to itself so grants and
/// accepts have inputs. Its time is an estimate of the real scheduler's
/// share on live demand, not an exact attribution, and is kept out of the
/// step spans.
int run_traced(const Workload& w, std::uint64_t seed, int threads,
               double horizon_scale, const std::string& trace_out,
               Clock::time_point origin) {
  Tracer tracer(origin);
  const int root = tracer.add("negbench.trace", origin, origin, -1);
  SetUp setup(w, seed, threads, horizon_scale, &tracer, root);
  const NetworkConfig& cfg = setup.cfg;
  const Nanos horizon = setup.horizon;
  FabricSim& fabric = setup.fabric();
  auto* nf = dynamic_cast<NegotiatorFabric*>(&fabric);
  std::unique_ptr<FlatTopology> shadow_topo;
  std::unique_ptr<NegotiatorScheduler> shadow;
  std::unique_ptr<FaultPlane> quiet;
  if (nf != nullptr) {
    shadow_topo = make_topology(cfg);
    shadow = make_negotiator_scheduler(cfg, *shadow_topo, Rng(seed).fork());
    quiet = std::make_unique<FaultPlane>(cfg.num_tors, cfg.ports_per_tor);
  }

  const Nanos measure_from = horizon / 2;
  fabric.fct().set_measure_from(measure_from);
  fabric.goodput().set_measure_interval(measure_from, horizon);

  const Nanos step = cfg.epoch_length_ns();
  std::vector<double> step_s;
  std::vector<double> sched_s;
  std::vector<double> sched_frac;
  std::vector<double> backlog_mb;
  std::vector<double> rss_sim_ms;
  std::vector<double> rss_mb;
  const std::size_t expected_steps =
      static_cast<std::size_t>((horizon + step - 1) / step);
  step_s.reserve(expected_steps);
  backlog_mb.reserve(expected_steps);
  Nanos next_rss_sample = 0;

  const auto run_start = Clock::now();
  const int run_span = tracer.add("engine.run", run_start, run_start, root);
  std::int64_t epoch = 0;
  for (Nanos t = 0; t < horizon; ++epoch) {
    const Nanos next = std::min(t + step, horizon);
    double shadow_elapsed = 0.0;
    if (shadow) {
      const auto s0 = Clock::now();
      shadow->begin_epoch(epoch, fabric.now(), *nf, *quiet);
      for (const auto& [src, dst] : shadow->epoch_out_pairs()) {
        shadow->deliver_pair(src, dst, true);
      }
      const auto s1 = Clock::now();
      tracer.add("core.shadow_schedule", s0, s1, run_span);
      shadow_elapsed = seconds_between(s0, s1);
      sched_s.push_back(shadow_elapsed);
    }
    const auto a = Clock::now();
    fabric.run_until(next);
    const auto b = Clock::now();
    tracer.add("engine.step", a, b, run_span);
    step_s.push_back(seconds_between(a, b));
    if (shadow) sched_frac.push_back(ratio(shadow_elapsed, step_s.back()));
    backlog_mb.push_back(static_cast<double>(fabric.total_backlog()) / 1e6);
    if (next >= next_rss_sample) {
      rss_sim_ms.push_back(static_cast<double>(next) / kMilli);
      rss_mb.push_back(peak_rss_mb());
      next_rss_sample += horizon / 10;
    }
    t = next;
  }
  const auto run_end = Clock::now();
  tracer.set_end(run_span, run_end);

  const auto t0 = Clock::now();
  const FctSummary mice = fabric.fct().mice_summary();
  const FctSummary all = fabric.fct().all_summary();
  const auto t1 = Clock::now();
  tracer.add("stats.summary", t0, t1, root);
  const double summary_s = seconds_between(t0, t1);
  // Runner::run on a fabric already at the horizon only re-reads the
  // results, so the fingerprint is computed exactly as a plain run's.
  const RunResult r = setup.runner->run(horizon, measure_from);
  tracer.set_end(root, Clock::now());
  if (!trace_out.empty() && !tracer.write(trace_out, w.name)) {
    std::fprintf(stderr, "negbench: cannot write %s\n", trace_out.c_str());
    return 1;
  }

  double step_total = 0.0;
  for (double s : step_s) step_total += s;
  double sched_total = 0.0;
  for (double s : sched_s) sched_total += s;
  std::vector<double> step_us(step_s.size());
  std::transform(step_s.begin(), step_s.end(), step_us.begin(),
                 [](double s) { return s * 1e6; });
  std::vector<double> rss_x;
  std::vector<double> rss_y;
  for (std::size_t i = 0; i < rss_sim_ms.size(); ++i) {
    if (rss_sim_ms[i] * kMilli >= static_cast<double>(measure_from)) {
      rss_x.push_back(rss_sim_ms[i]);
      rss_y.push_back(rss_mb[i]);
    }
  }
  const double run_wall = seconds_between(run_start, run_end);
  const double events = static_cast<double>(fabric.events_executed());

  JsonLine layers;
  layers.num("workload.generate_s", setup.generate_s);
  layers.num("engine.construct_s", setup.construct_s);
  layers.num("engine.admit_s", setup.admit_s);
  layers.num("engine.steps", static_cast<double>(step_s.size()));
  layers.num("engine.step_us_p50", percentile(step_us, 50));
  layers.num("engine.step_us_p99", percentile(step_us, 99));
  layers.num("engine.step_us_max", percentile(step_us, 100));
  layers.num("engine.deliveries_per_dispatch",
             ratio(static_cast<double>(fabric.deliveries()),
                   static_cast<double>(fabric.delivery_dispatches())));
  layers.num("engine.rss_growth_mb_per_sim_ms", slope(rss_x, rss_y));
  layers.num("sim.events", events);
  layers.num("sim.events_per_dispatch",
             ratio(events, static_cast<double>(fabric.events_dispatched())));
  layers.num("sim.events_per_s", ratio(events, step_total));
  layers.num("tor.backlog_mb_p50", percentile(backlog_mb, 50));
  layers.num("tor.backlog_mb_max", percentile(backlog_mb, 100));
  layers.num("stats.summary_s", summary_s);
  layers.num("stats.fct_samples", static_cast<double>(r.completed));
  layers.num("core.sched_share", ratio(sched_total, step_total));
  layers.num("core.sched_frac_p50", percentile(sched_frac, 50));
  layers.num("core.sched_frac_p99", percentile(sched_frac, 99));

  // Counters only negotiator fabrics have; 0 where the layer is absent.
  double fallback_frac = 0.0, match_util = 0.0, piggyback = 0.0;
  double control_drop = 0.0, data_loss = 0.0;
  double retx_frac = 0.0, rto_fires = 0.0, spurious = 0.0;
  if (nf != nullptr) {
    const double epochs = static_cast<double>(nf->current_epoch());
    fallback_frac = ratio(static_cast<double>(nf->degraded_slots()),
                          epochs * cfg.epoch.scheduled_slots);
    match_util = ratio(static_cast<double>(nf->match_slots_used()),
                       static_cast<double>(nf->match_slots_offered()));
    piggyback = ratio(static_cast<double>(nf->piggyback_packets()), epochs);
    if (const ControlChannel* c = nf->control_channel()) {
      control_drop = ratio(static_cast<double>(c->dropped()),
                           static_cast<double>(c->classified()));
    }
    if (const DataChannel* d = nf->data_channel()) {
      data_loss = ratio(static_cast<double>(d->dropped() + d->corrupted()),
                        static_cast<double>(d->classified()));
    }
    if (const HostTransport* tr = nf->host_transport()) {
      retx_frac = ratio(static_cast<double>(tr->retransmitted_bytes()),
                        static_cast<double>(tr->delivered_bytes()));
      rto_fires = static_cast<double>(tr->rto_fires());
      spurious = static_cast<double>(tr->spurious_retx());
    }
  }
  layers.num("engine.fallback_slot_frac", fallback_frac);
  layers.num("core.match_ratio", r.mean_match_ratio);
  layers.num("core.match_slot_util", match_util);
  layers.num("core.piggyback_per_epoch", piggyback);
  layers.num("core.control.drop_frac", control_drop);
  layers.num("core.data.loss_frac", data_loss);
  layers.num("tor.transport.retx_frac", retx_frac);
  layers.num("tor.transport.rto_fires", rto_fires);
  layers.num("tor.transport.spurious_retx", spurious);
  layers.num("trace.coverage_frac",
             ratio(step_total + sched_total, run_wall));

  JsonLine fields;
  fields.num("step_s_total", step_total);
  fields.num("peak_rss_mb", peak_rss_mb());
  fields.raw("layers", layers.done());
  const bool summaries_repeat =
      mice.p99_ns == r.mice.p99_ns && all.mean_ns == r.all_flows.mean_ns;
  return report(w, seed, "trace", setup, r,
                summaries_repeat ? "" : "repeated summaries differ", fields);
}

// ------------------------------------------------------------------ plain

int run_plain(const Workload& w, std::uint64_t seed, int threads,
              double horizon_scale) {
  SetUp setup(w, seed, threads, horizon_scale);
  const auto t0 = Clock::now();
  const RunResult r = setup.runner->run(setup.horizon, setup.horizon / 2);
  const auto t1 = Clock::now();
  JsonLine fields;
  fields.num("run_s", seconds_between(t0, t1));
  fields.num("peak_rss_mb", peak_rss_mb());
  return report(w, seed, "plain", setup, r, "", fields);
}

// ------------------------------------------------------------------- main

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "negbench: %s\nusage: negbench --workload NAME --seed N "
               "[--mode plain|trace] [--threads K] [--horizon-scale F] "
               "[--trace-out PATH]\nworkloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::uint64_t parse_u64(const char* s, const char* flag) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') {
    usage((std::string("bad value for ") + flag).c_str());
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  const auto origin = Clock::now();
  std::string workload;
  std::string mode = "plain";
  std::string trace_out;
  std::uint64_t seed = 0;
  bool have_seed = false;
  int threads = 1;
  double horizon_scale = 1.0;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = parse_u64(value, "--seed");
      have_seed = true;
    } else if (flag == "--mode") {
      mode = value;
    } else if (flag == "--threads") {
      const std::uint64_t t = parse_u64(value, "--threads");
      if (t < 1 || t > 256) usage("--threads must be in [1, 256]");
      threads = static_cast<int>(t);
    } else if (flag == "--horizon-scale") {
      char* end = nullptr;
      horizon_scale = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(horizon_scale >= 1.0) ||
          horizon_scale > 1000.0) {
        usage("--horizon-scale must be in [1, 1000]");
      }
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  const Workload* w = find_workload(workload);
  if (w == nullptr) usage("unknown or missing --workload");
  if (!have_seed) usage("missing --seed");
  if (mode == "plain") return run_plain(*w, seed, threads, horizon_scale);
  if (mode == "trace") {
    return run_traced(*w, seed, threads, horizon_scale, trace_out, origin);
  }
  usage("--mode must be plain or trace");
}
