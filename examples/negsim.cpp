// negsim — command-line driver for arbitrary fabric experiments.
//
//   negsim [--topology parallel|thin-clos]
//          [--scheduler negotiator|oblivious|iterative|informative-size|
//                       informative-hol|stateful|selective-relay|projector|
//                       centralized]
//          [--workload hadoop|web-search|google|fixed:<bytes>]
//          [--load 0.5] [--duration-ms 4] [--seed 1]
//          [--tors 128] [--ports 8] [--speedup 2]
//          [--no-piggyback] [--no-pq] [--iterations 3]
//          [--csv out.csv]
//
// Prints a one-line result; with --csv, appends a machine-readable row.
// A malformed value or an invalid configuration exits 2 with a "negsim:"
// message naming the flag or the config field.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>

#include "engine/runner.h"
#include "workload/generator.h"
#include "workload/size_distribution.h"

using namespace negotiator;

namespace {

[[noreturn]] void usage(const std::string& message) {
  std::fprintf(stderr, "negsim: %s\n(see the header of examples/negsim.cpp "
                       "for the full flag list)\n",
               message.c_str());
  std::exit(2);
}

/// Whole-string base-10 integer; anything else (empty, trailing garbage,
/// out of range) is a usage error naming `flag`.
long long parse_int(const std::string& flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) {
    usage(flag + ": expected an integer, got '" + text + "'");
  }
  return v;
}

/// parse_int bounded to an int.
int parse_int32(const std::string& flag, const char* text) {
  const long long v = parse_int(flag, text);
  if (v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    usage(flag + ": out of range: '" + text + "'");
  }
  return static_cast<int>(v);
}

/// Whole-string finite, strictly positive number.
double parse_positive(const std::string& flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE || !std::isfinite(v) ||
      v <= 0) {
    usage(flag + ": expected a finite positive number, got '" + text + "'");
  }
  return v;
}

SchedulerKind parse_scheduler(const std::string& name) {
  if (name == "negotiator") return SchedulerKind::kNegotiator;
  if (name == "oblivious") return SchedulerKind::kOblivious;
  if (name == "iterative") return SchedulerKind::kNegotiatorIterative;
  if (name == "informative-size") {
    return SchedulerKind::kNegotiatorInformativeSize;
  }
  if (name == "informative-hol") {
    return SchedulerKind::kNegotiatorInformativeHol;
  }
  if (name == "stateful") return SchedulerKind::kNegotiatorStateful;
  if (name == "selective-relay") {
    return SchedulerKind::kNegotiatorSelectiveRelay;
  }
  if (name == "projector") return SchedulerKind::kProjector;
  if (name == "centralized") return SchedulerKind::kCentralized;
  usage("unknown scheduler");
}

SizeDistribution parse_workload(const std::string& name) {
  if (name == "hadoop") return SizeDistribution::hadoop();
  if (name == "web-search") return SizeDistribution::web_search();
  if (name == "google") return SizeDistribution::google();
  if (name.rfind("fixed:", 0) == 0) {
    const long long bytes = parse_int("--workload fixed", name.c_str() + 6);
    if (bytes <= 0) usage("--workload fixed: size must be positive");
    return SizeDistribution::fixed(bytes);
  }
  usage("unknown workload");
}

}  // namespace

int main(int argc, char** argv) {
  NetworkConfig cfg;
  std::string workload = "hadoop";
  double load = 0.5;
  double duration_ms = 4.0;
  std::string csv_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--topology") {
      const std::string v = value();
      if (v == "parallel") {
        cfg.topology = TopologyKind::kParallel;
      } else if (v == "thin-clos") {
        cfg.topology = TopologyKind::kThinClos;
      } else {
        usage("unknown topology");
      }
    } else if (arg == "--scheduler") {
      cfg.scheduler = parse_scheduler(value());
    } else if (arg == "--workload") {
      workload = value();
    } else if (arg == "--load") {
      load = parse_positive(arg, value());
    } else if (arg == "--duration-ms") {
      duration_ms = parse_positive(arg, value());
    } else if (arg == "--seed") {
      const long long seed = parse_int(arg, value());
      if (seed < 0) usage("--seed: must be non-negative");
      cfg.seed = static_cast<std::uint64_t>(seed);
    } else if (arg == "--tors") {
      cfg.num_tors = parse_int32(arg, value());
    } else if (arg == "--ports") {
      cfg.ports_per_tor = parse_int32(arg, value());
    } else if (arg == "--speedup") {
      cfg.speedup = parse_positive(arg, value());
    } else if (arg == "--iterations") {
      cfg.variant.iterations = parse_int32(arg, value());
    } else if (arg == "--no-piggyback") {
      cfg.piggyback = false;
    } else if (arg == "--no-pq") {
      cfg.pias.enabled = false;
    } else if (arg == "--csv") {
      csv_path = value();
    } else {
      usage("unknown flag " + arg);
    }
  }
  try {
    cfg.validate();
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }

  const auto sizes = parse_workload(workload);
  const auto duration = static_cast<Nanos>(duration_ms * kMilli);
  WorkloadGenerator gen(sizes, cfg.num_tors, cfg.host_rate(), load,
                        Rng(cfg.seed));
  Runner runner(cfg);
  runner.add_flows(gen.generate(0, duration));
  const RunResult r = runner.run(duration, duration / 2);

  std::printf("%s | %s load=%.2f %.1fms\n", cfg.summary().c_str(),
              workload.c_str(), load, duration_ms);
  std::printf("mice 99p/mean FCT: %.1f / %.1f us | goodput %.3f | match "
              "ratio %.3f | %zu flows completed\n",
              r.mice.p99_ns / 1e3, r.mice.mean_ns / 1e3, r.goodput,
              r.mean_match_ratio, r.completed);

  if (!csv_path.empty()) {
    const bool fresh = !std::ifstream(csv_path).good();
    std::ofstream csv(csv_path, std::ios::app);
    if (!csv) usage("cannot open csv output");
    if (fresh) {
      csv << "topology,scheduler,workload,load,duration_ms,seed,"
             "mice_p99_us,mice_mean_us,goodput,match_ratio,completed\n";
    }
    csv << to_string(cfg.topology) << ',' << to_string(cfg.scheduler) << ','
        << workload << ',' << load << ',' << duration_ms << ',' << cfg.seed
        << ',' << r.mice.p99_ns / 1e3 << ',' << r.mice.mean_ns / 1e3 << ','
        << r.goodput << ',' << r.mean_match_ratio << ',' << r.completed
        << '\n';
  }
  return 0;
}
