// Fig. 18 (A.3): receiver bandwidth time series under a synchronized
// all-to-all of 30 KB flows, sampled at one destination. For the oblivious
// scheme, relay-in traffic (the grey dots of the figure) is shown
// separately: it occupies receiver bandwidth without contributing to that
// receiver's goodput.
//
// Expected shape: NegotiaToR's receiver sustains high useful bandwidth
// until the all-to-all completes; the oblivious receiver splits its
// bandwidth with relay-in traffic and finishes later.
#include "bench_common.h"
#include "workload/all_to_all.h"

using namespace negbench;

namespace {

// Body: 40 goodput samples then 40 relay-in samples (Gbps) as metrics.
SweepPoint trace_alltoall_point(const char* name, const NetworkConfig& cfg) {
  SweepPoint p = custom_point(
      [cfg](const SweepPoint&) {
        const Nanos window = 10 * kMicro;
        Runner runner(cfg, window);
        const Nanos inject = 10 * kMicro;
        runner.add_flows(make_all_to_all(cfg.num_tors, 30_KB, inject, 0, 2));
        runner.fabric().run_until(inject + 990 * kMicro);
        const TorId dst = 7;  // an arbitrary receiver
        const auto& good = runner.fabric().goodput().tor_window_series(dst);
        const auto& relay =
            runner.fabric().goodput().tor_relay_window_series(dst);
        auto gbps = [&](const std::vector<Bytes>& s, std::size_t w) {
          const double bytes =
              w < s.size() ? static_cast<double>(s[w]) : 0.0;
          return bytes * 8.0 / static_cast<double>(window);
        };
        SweepOutcome out;
        for (std::size_t w = 0; w < 40; ++w) out.metrics.push_back(gbps(good, w));
        for (std::size_t w = 0; w < 40; ++w) out.metrics.push_back(gbps(relay, w));
        return out;
      },
      name);
  p.config = cfg;  // the printer keys the relay row off the scheduler
  return p;
}

}  // namespace

int main() {
  print_header("Fig. 18: receiver bandwidth, all-to-all 30KB (inject@10us)");
  const std::vector<SweepPoint> points = {
      trace_alltoall_point("negotiator/parallel",
                           paper_config(TopologyKind::kParallel,
                                        SchedulerKind::kNegotiator)),
      trace_alltoall_point("negotiator/thin-clos",
                           paper_config(TopologyKind::kThinClos,
                                        SchedulerKind::kNegotiator)),
      trace_alltoall_point("oblivious/thin-clos",
                           paper_config(TopologyKind::kThinClos,
                                        SchedulerKind::kOblivious)),
  };
  const auto outcomes = run_sweep(points);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const char* name = points[i].label.c_str();
    const auto& m = outcomes[i].metrics;
    std::printf("%-22s goodput Gbps per 10us window:", name);
    for (std::size_t w = 0; w < 40; ++w) std::printf(" %.0f", m[w]);
    std::printf("\n");
    if (points[i].config.scheduler == SchedulerKind::kOblivious) {
      std::printf("%-22s relay-in Gbps (not goodput):  ", name);
      for (std::size_t w = 0; w < 40; ++w) std::printf(" %.0f", m[40 + w]);
      std::printf("\n");
    }
  }
  std::printf(
      "\npaper: NegotiaToR receivers sustain high useful bandwidth until "
      "completion; the oblivious receiver splits its bandwidth with "
      "relay-in traffic and finishes later.\n");
  return 0;
}
