#!/usr/bin/env python3
"""The NegotiaToR simulator benchmark.

Builds benchmark/negbench (a standalone CMake project that links the repo's
`negotiator` library) into build-bench/, runs the workloads named in
BENCHMARK.json, checks every run's outputs, and reports the end-to-end and
per-layer metrics. See benchmark/README.md for the workloads and metrics.

  python3 benchmark/run.py                 every workload: one measurement
                                           and one traced measurement each;
                                           prints every metric with unit and
                                           bound, writes
                                           build-bench/benchmark_result.json
  python3 benchmark/run.py --smoke         horizons / 10, minimal repetitions
  python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1
                                           one measurement of one workload;
                                           the last stdout line is one JSON
                                           object {correct, attempted, failed,
                                           metrics}
  python3 benchmark/run.py --write-pins    re-record benchmark/pins.json
                                           (only after an intended change of
                                           simulated behaviour)

Exit status is non-zero when a repetition fails, an output check fails, or a
result fingerprint misses its pin.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "benchmark")
BUILD_DIR = os.path.join(ROOT, "build-bench")
NEGBENCH = os.path.join(BUILD_DIR, "negbench")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
PINS_PATH = os.path.join(BENCH_DIR, "pins.json")

# The seed pins.json was recorded at, for inputs 0..PINNED_INPUTS-1. Seed
# 20261 was held back from all tuning: confirm any claimed gain on it too.
DEFAULT_SEED = 9
PINNED_INPUTS = 7

# Every measurement runs at least this many plain repetitions.
MIN_REPS = 3
# Sharded reruns use at most this many simulator worker threads.
MAX_SHARD_THREADS = 4
# A repetition slower than this multiple of the median counts as failed...
TIMEOUT_FACTOR = 5.0
# ...and none outlives this many seconds after its measurement started, so
# one invocation ends within 180 s even when repetitions hang.
DEADLINE_S = 160.0
# Timings report this quantile of the repetitions, counted from the best
# one. Other tenants of the host only ever slow a repetition down -- by up
# to 40% on the machine the benchmark was tuned on -- in phases that last
# minutes, which drag a run's median along with them; the least-disturbed
# repetitions track the simulator's own speed far more steadily (spread
# over ten runs per workload: median 13-22%, this quantile 5-16%).
TIMING_QUANTILE = 0.9

# Variables that silently change what a repetition measures (the sharded
# pipeline, bench durations, perf-bench knobs).
STRIPPED_ENV = ("NEG_SIM_THREADS", "NEG_BENCH_THREADS", "NEG_DURATION_MS")
STRIPPED_ENV_PREFIX = "NEG_PERF_"

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Per-layer metric -> (end-to-end metric it should move, workloads where the
# layer works hardest, workloads where it sits idle). "none" marks a metric
# that must not move anything.
LAYER_MAP = {
    "workload.generate_s": ("setup_s", ["incast_negotiator_thinclos"],
                            ["lossy_negotiator_parallel"]),
    "engine.construct_s": ("setup_s", ["fig9_negotiator_parallel"],
                           ["lossy_negotiator_parallel"]),
    "engine.admit_s": ("setup_s", ["incast_negotiator_thinclos"],
                       ["lossy_negotiator_parallel"]),
    "engine.steps": ("sim_ns_per_wall_s", ["fig9_negotiator_parallel"], []),
    "engine.step_us_p50": ("sim_ns_per_wall_s",
                           ["fig9_negotiator_parallel",
                            "fig9_oblivious_thinclos"], []),
    "engine.step_us_p99": ("sim_ns_per_wall_s",
                           ["fig9_negotiator_parallel",
                            "fig9_oblivious_thinclos"], []),
    "engine.step_us_max": ("sim_ns_per_wall_s",
                           ["lossy_negotiator_parallel"], []),
    "engine.deliveries_per_dispatch": ("sim_ns_per_wall_s",
                                       ["fig9_oblivious_thinclos"],
                                       ["incast_negotiator_thinclos"]),
    "engine.fallback_slot_frac": ("delivered_bytes_per_wall_s",
                                  ["lossy_negotiator_parallel"],
                                  ["fig9_negotiator_parallel",
                                   "fig9_oblivious_thinclos",
                                   "incast_negotiator_thinclos"]),
    "engine.shard4_speedup": ("sim_ns_per_wall_s",
                              ["fig9_negotiator_parallel",
                               "fig9_oblivious_thinclos"],
                              ["lossy_negotiator_parallel"]),
    "engine.rss_growth_mb_per_sim_ms": ("peak_rss_mb",
                                        ["lossy_negotiator_parallel"],
                                        ["fig9_oblivious_thinclos"]),
    "core.sched_share": ("sim_ns_per_wall_s", ["fig9_negotiator_parallel",
                                               "incast_negotiator_thinclos"],
                         ["fig9_oblivious_thinclos"]),
    "core.sched_frac_p50": ("sim_ns_per_wall_s",
                            ["fig9_negotiator_parallel"],
                            ["fig9_oblivious_thinclos"]),
    "core.sched_frac_p99": ("sim_ns_per_wall_s",
                            ["fig9_negotiator_parallel"],
                            ["fig9_oblivious_thinclos"]),
    "core.match_ratio": ("delivered_bytes_per_wall_s",
                         ["fig9_negotiator_parallel"],
                         ["fig9_oblivious_thinclos"]),
    "core.match_slot_util": ("delivered_bytes_per_wall_s",
                             ["fig9_negotiator_parallel"],
                             ["fig9_oblivious_thinclos"]),
    "core.piggyback_per_epoch": ("delivered_bytes_per_wall_s",
                                 ["incast_negotiator_thinclos"],
                                 ["fig9_oblivious_thinclos"]),
    "core.control.drop_frac": ("delivered_bytes_per_wall_s",
                               ["lossy_negotiator_parallel"],
                               ["fig9_negotiator_parallel",
                                "fig9_oblivious_thinclos",
                                "incast_negotiator_thinclos"]),
    "core.data.loss_frac": ("delivered_bytes_per_wall_s",
                            ["lossy_negotiator_parallel"],
                            ["fig9_negotiator_parallel",
                             "fig9_oblivious_thinclos",
                             "incast_negotiator_thinclos"]),
    "sim.events": ("sim_ns_per_wall_s", ["fig9_oblivious_thinclos"],
                   ["fig9_negotiator_parallel"]),
    "sim.events_per_dispatch": ("sim_ns_per_wall_s",
                                ["fig9_oblivious_thinclos"],
                                ["fig9_negotiator_parallel"]),
    "sim.events_per_s": ("sim_ns_per_wall_s", ["fig9_oblivious_thinclos"],
                         ["fig9_negotiator_parallel"]),
    "tor.backlog_mb_p50": ("peak_rss_mb", ["fig9_negotiator_parallel"],
                           ["incast_negotiator_thinclos"]),
    "tor.backlog_mb_max": ("peak_rss_mb", ["fig9_negotiator_parallel"],
                           ["incast_negotiator_thinclos"]),
    "tor.transport.retx_frac": ("delivered_bytes_per_wall_s",
                                ["lossy_negotiator_parallel"],
                                ["fig9_negotiator_parallel",
                                 "fig9_oblivious_thinclos",
                                 "incast_negotiator_thinclos"]),
    "tor.transport.rto_fires": ("peak_rss_mb", ["lossy_negotiator_parallel"],
                                ["fig9_negotiator_parallel",
                                 "fig9_oblivious_thinclos",
                                 "incast_negotiator_thinclos"]),
    "tor.transport.spurious_retx": ("delivered_bytes_per_wall_s",
                                    ["lossy_negotiator_parallel"],
                                    ["fig9_negotiator_parallel",
                                     "fig9_oblivious_thinclos",
                                     "incast_negotiator_thinclos"]),
    "stats.summary_s": ("peak_rss_mb", ["incast_negotiator_thinclos"],
                        ["lossy_negotiator_parallel"]),
    "stats.fct_samples": ("peak_rss_mb", ["incast_negotiator_thinclos"],
                          ["lossy_negotiator_parallel"]),
    "trace.coverage_frac": ("none", [], []),
    "trace.overhead_frac": ("none", [], []),
}


class RepFailure(Exception):
    """One negbench process that aborted, timed out or failed a check."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ schema

def validate_spec(spec):
    """Returns a list of problems with BENCHMARK.json (empty when valid)."""
    errors = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != keys:
        errors.append("top-level keys must be exactly %s" % sorted(keys))
        return errors
    names = set()

    def check_name(name, what):
        if not isinstance(name, str) or not NAME_RE.match(name):
            errors.append("%s name %r is malformed" % (what, name))
        elif name in names:
            errors.append("name %r is used twice" % name)
        names.add(name)

    workloads = spec["workloads"]
    if not 2 <= len(workloads) <= 8:
        errors.append("need 2-8 workloads, have %d" % len(workloads))
    for w in workloads:
        if set(w) != {"name", "why"}:
            errors.append("workload %r must have exactly name, why" % w)
            continue
        check_name(w["name"], "workload")
        if not w["why"] or len(w["why"]) > 200 or "\n" in w["why"]:
            errors.append("workload %s: why must be one line of <= 200 "
                          "characters" % w["name"])
    e2e = spec["end_to_end"]
    if not 1 <= len(e2e) <= 16:
        errors.append("need 1-16 end-to-end metrics, have %d" % len(e2e))
    for m in e2e:
        if set(m) != {"name", "unit", "better", "bound"}:
            errors.append("end-to-end metric %r has the wrong keys" % m)
            continue
        check_name(m["name"], "end-to-end metric")
        if not UNIT_RE.match(m["unit"]):
            errors.append("metric %s: malformed unit" % m["name"])
        if m["better"] not in ("higher", "lower"):
            errors.append("metric %s: better must be higher/lower" % m["name"])
        if not isinstance(m["bound"], (int, float)) or \
                not 0 < m["bound"] <= 0.25:
            errors.append("metric %s: bound must be in (0, 0.25]" % m["name"])
    setup = [m for m in e2e if m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or \
            setup[0].get("better") != "lower":
        errors.append("setup_s (unit s, lower) is required")
    elif any(m.get("bound", 0) > setup[0]["bound"] for m in e2e):
        errors.append("setup_s must carry the largest bound")
    layers = spec["per_layer"]
    if not 1 <= len(layers) <= 128:
        errors.append("need 1-128 per-layer metrics, have %d" % len(layers))
    e2e_names = {m.get("name") for m in e2e}
    workload_names = {w.get("name") for w in workloads}
    for m in layers:
        if set(m) != {"name", "unit", "better"}:
            errors.append("per-layer metric %r has the wrong keys" % m)
            continue
        check_name(m["name"], "per-layer metric")
        if not UNIT_RE.match(m["unit"]):
            errors.append("metric %s: malformed unit" % m["name"])
        if m["better"] not in ("higher", "lower"):
            errors.append("metric %s: better must be higher/lower" % m["name"])
        if m["name"] not in LAYER_MAP:
            errors.append("per-layer metric %s names no end-to-end metric "
                          "or workloads (LAYER_MAP)" % m["name"])
            continue
        moves, heavy, idle = LAYER_MAP[m["name"]]
        if moves != "none" and moves not in e2e_names:
            errors.append("%s moves unknown metric %s" % (m["name"], moves))
        for w in heavy + idle:
            if w not in workload_names:
                errors.append("%s names unknown workload %s" % (m["name"], w))
    if set(LAYER_MAP) != {m.get("name") for m in layers}:
        errors.append("LAYER_MAP and per_layer list different metrics")
    if not isinstance(spec["run_seconds"], int) or \
            not 1 <= spec["run_seconds"] <= 60:
        errors.append("run_seconds must be a whole number in [1, 60]")
    return errors


def load_spec():
    with open(SPEC_PATH) as f:
        spec = json.load(f)
    errors = validate_spec(spec)
    if errors:
        for e in errors:
            log("BENCHMARK.json: " + e)
        sys.exit(1)
    return spec


# ------------------------------------------------------------------- build

def clean_env():
    return {k: v for k, v in os.environ.items()
            if k not in STRIPPED_ENV and
            not k.startswith(STRIPPED_ENV_PREFIX)}


def build():
    """Configures (once) and builds negbench; exits non-zero on failure."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        log("run.py: the simulator sources are missing next to benchmark/; "
            "run from a full checkout")
        sys.exit(2)
    os.makedirs(BUILD_DIR, exist_ok=True)
    build_log = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "negbench",
                  "-j", jobs])
    with open(build_log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              env=clean_env()).returncode != 0:
                with open(build_log) as f:
                    log("".join(f.readlines()[-30:]))
                log("run.py: build failed (full log: %s)" % build_log)
                sys.exit(1)


# ------------------------------------------------------------ repetitions

def shard_threads():
    return max(1, min(MAX_SHARD_THREADS, os.cpu_count() or 1))


def input_seed(seed, index):
    """Seed of the inputs that repetition `index` of a run at `seed`
    simulates. Each repetition of a run simulates its own input, so a run
    covers many draws of the flow trace rather than one."""
    return (seed * 1000 + index) % 2**64


def negbench(workload, seed, mode, threads, horizon_scale, trace_out,
             timeout):
    """Runs one repetition in its own process; returns its JSON result."""
    cmd = [NEGBENCH, "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--threads", str(threads),
           "--horizon-scale", repr(horizon_scale)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=clean_env(), timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RepFailure("%s %s timed out after %.0f s"
                         % (workload, mode, timeout))
    wall = time.monotonic() - start
    if proc.returncode != 0:
        raise RepFailure("%s %s exited %d: %s" % (
            workload, mode, proc.returncode, proc.stderr.strip()))
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        raise RepFailure("%s %s printed no result" % (workload, mode))
    result["wall_s"] = wall
    return result


class Repeater:
    """Runs repetitions of one workload, checks each result's fingerprint,
    and tallies attempts and failures."""

    def __init__(self, workload, seed, pins, horizon_scale):
        self.deadline = time.monotonic() + DEADLINE_S
        self.workload = workload
        self.seed = seed
        self.horizon_scale = horizon_scale
        pinned = seed == pins["seed"] and horizon_scale == 1.0
        self.pins = pins["workloads"].get(workload, {}) if pinned else {}
        self.fingerprints = {}  # input index -> first fingerprint seen
        self.next_input = 0
        self.attempted = 0
        self.failures = []
        self.walls = []

    def timeout(self):
        left = max(1.0, self.deadline - time.monotonic())
        if not self.walls:
            return left
        return min(left,
                   max(10.0, TIMEOUT_FACTOR * statistics.median(self.walls)))

    def fail(self, e):
        self.failures.append(str(e))
        log("FAILED: %s" % e)

    def check(self, r, index):
        """Raises RepFailure when `r` misses its pin or differs from an
        earlier run of the same input (traced and sharded runs included)."""
        pinned = self.pins.get("fingerprints", [])
        expected = [pinned[index]] if index < len(pinned) else []
        if index in self.fingerprints:
            expected.append(self.fingerprints[index])
        for fp in expected:
            if r["fingerprint"] != fp:
                raise RepFailure("%s %s input %d: fingerprint %s, expected "
                                 "%s" % (self.workload, r["mode"], index,
                                         r["fingerprint"], fp))

    def run(self, index=None, mode="plain", threads=1, trace_out=None):
        """One repetition of input `index` (default: the next fresh one).
        Returns its result, or None when the process failed. A result that
        misses its fingerprint counts as failed but is still returned: it
        was measured, only its output is wrong."""
        if index is None:
            index = self.next_input
            self.next_input += 1
        self.attempted += 1
        try:
            r = negbench(self.workload, input_seed(self.seed, index), mode,
                         threads, self.horizon_scale, trace_out,
                         self.timeout())
        except RepFailure as e:
            self.fail(e)
            return None
        try:
            self.check(r, index)
        except RepFailure as e:
            self.fail(e)
        self.fingerprints.setdefault(index, r["fingerprint"])
        if mode == "plain" and threads == 1:
            self.walls.append(r["wall_s"])
        return r


# ---------------------------------------------------------------- metrics

def rep_values(reps):
    """Each end-to-end quantity, one value per repetition."""
    return {
        "sim_ns_per_wall_s": [r["sim_ns"] / r["run_s"] for r in reps],
        "delivered_bytes_per_wall_s":
            [r["delivered_bytes"] / r["run_s"] for r in reps],
        "setup_s": [r["setup_s"] for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }


def quantile(values, q):
    """Linearly interpolated quantile, q in [0, 1]."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def e2e_metrics(spec, reps):
    """A run's end-to-end metrics. Timings take TIMING_QUANTILE counted
    from the best repetition. Peak memory, which interference does not
    move, takes the mean over the run's inputs: a median would flip between
    the allocator's size classes."""
    per_rep = rep_values(reps)
    values = {}
    for m in spec["end_to_end"]:
        v = per_rep[m["name"]]
        if m["name"] == "peak_rss_mb":
            values[m["name"]] = statistics.fmean(v)
        else:
            values[m["name"]] = quantile(v, TIMING_QUANTILE if
                                         m["better"] == "higher" else
                                         1.0 - TIMING_QUANTILE)
    return values


def layer_metrics(traced, plain, sharded):
    """Per-layer metrics: the traced run's layers plus the two that need
    untraced reruns of the same input."""
    layers = dict(traced["layers"])
    plain_run = statistics.median(r["run_s"] for r in plain)
    layers["engine.shard4_speedup"] = \
        plain_run / statistics.median(r["run_s"] for r in sharded)
    layers["trace.overhead_frac"] = traced["step_s_total"] / plain_run - 1.0
    return layers


# ------------------------------------------------------------ measurement

class Measurement:
    """One measurement of one workload: what one `--workload` run does."""

    def __init__(self, spec, pins, workload, seed, seconds, trace,
                 horizon_scale=1.0):
        self.workload = workload
        self.trace = trace
        self.rep = Repeater(workload, seed, pins, horizon_scale)
        self.reps = []
        self.values = None
        self.loadavg = [loadavg()]
        start = time.monotonic()

        def fits(per_item):
            return time.monotonic() - start + per_item <= seconds

        if trace:
            self.values = self.traced(fits)
        else:
            while self.rep.attempted < MIN_REPS or (
                    self.rep.attempted < 500 and
                    fits(statistics.median(self.rep.walls)
                         if self.rep.walls else 0.0)):
                r = self.rep.run()
                if r:
                    self.reps.append(r)
            if self.reps:
                self.values = e2e_metrics(spec, self.reps)
        self.loadavg.append(loadavg())

    def traced(self, fits):
        """The traced run of input 0, then untraced serial and sharded
        reruns of the same input in turn while time remains (at least one
        of each): the references for the tracing overhead and the shard
        speedup."""
        trace_dir = os.path.join(BUILD_DIR, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        traced = self.rep.run(0, "trace", trace_out=os.path.join(
            trace_dir, self.workload + ".jsonl"))
        plain, sharded, rounds = [], [], []
        while not rounds or (len(rounds) < 50 and
                             fits(statistics.median(rounds))):
            t0 = time.monotonic()
            r = self.rep.run(0)
            if r:
                plain.append(r)
            r = self.rep.run(0, threads=shard_threads())
            if r:
                sharded.append(r)
            rounds.append(time.monotonic() - t0)
        if traced is None or not plain or not sharded:
            return None
        return layer_metrics(traced, plain, sharded)

    @property
    def failed(self):
        return len(self.rep.failures)

    def result_line(self, spec):
        kind = "per_layer" if self.trace else "end_to_end"
        metrics = {m["name"]: {"value": self.values[m["name"]],
                               "unit": m["unit"]} for m in spec[kind]}
        return json.dumps({"correct": self.failed == 0,
                           "attempted": self.rep.attempted,
                           "failed": self.failed, "metrics": metrics})


def loadavg():
    try:
        return os.getloadavg()[0]
    except OSError:
        return None


# ------------------------------------------------------------ full report

def provenance(seed):
    def run(cmd):
        try:
            return subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=ROOT).stdout.strip()
        except OSError:
            return ""
    cache = {}
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                key, sep, value = line.rstrip("\n").partition("=")
                if sep and ":" in key:
                    cache[key.split(":", 1)[0]] = value
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    version = run([compiler, "--version"]).splitlines() if compiler else []
    return {
        "git_head": run(["git", "rev-parse", "HEAD"]) or "unknown",
        "compiler": version[0] if version else compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "nproc": os.cpu_count(),
        "shard_threads": shard_threads(),
        "seed": seed,
        "input_seeds": "repetition i of a run at seed s simulates seed "
                       "1000*s+i",
    }


def run_full(spec, pins, seed, seconds, horizon_scale):
    """Every workload: one measurement, then one traced measurement.
    Prints the report, writes it as JSON, returns True when all passed."""
    names = [w["name"] for w in spec["workloads"]]
    plain, traced = {}, {}
    for w in names:
        log("measuring %s" % w)
        plain[w] = Measurement(spec, pins, w, seed, seconds, False,
                               horizon_scale)
    for w in names:
        log("tracing %s" % w)
        traced[w] = Measurement(spec, pins, w, seed, seconds, True,
                                horizon_scale)

    report = {"provenance": provenance(seed), "seconds": seconds,
              "horizon_scale": horizon_scale, "workloads": {}}
    print("NegotiaToR simulator benchmark, seed %d. Timings: %d%% quantile "
          "of the repetitions from the best; memory: mean. [q1 median q3] "
          "over repetitions." % (seed, round(100 * TIMING_QUANTILE)))
    print("Model accuracy is not measured: the repo holds no reference data "
          "from the paper, so the model is unvalidated.")
    ok = True
    for w in names:
        p, t = plain[w], traced[w]
        attempted = p.rep.attempted + t.rep.attempted
        failures = p.rep.failures + t.rep.failures
        entry = {"attempted": attempted, "failed": len(failures),
                 "failures": failures, "loadavg": p.loadavg + t.loadavg,
                 "metrics": {}}
        print("\n%s  (attempted %d, failed %d, failed_runs_frac %.3f)" % (
            w, attempted, len(failures), len(failures) / attempted))
        ok = ok and not failures and p.values is not None and \
            t.values is not None
        if p.values is not None:
            per_rep = rep_values(p.reps)
            for m in spec["end_to_end"]:
                name = m["name"]
                q1, med, q3 = statistics.quantiles(per_rep[name], n=4) \
                    if len(p.reps) > 1 else [per_rep[name][0]] * 3
                entry["metrics"][name] = {
                    "value": p.values[name], "q1": q1, "median": med,
                    "q3": q3, "n": len(p.reps), "unit": m["unit"],
                    "better": m["better"], "bound": m["bound"]}
                print("  %-27s %12.6g %-4s [%.4g %.4g %.4g] n=%d  %s is "
                      "better, bound %.0f%%" % (
                          name, p.values[name], m["unit"], q1, med, q3,
                          len(p.reps), m["better"], 100 * m["bound"]))
            first = p.reps[0]
            entry["modelled_input0"] = {
                k: first[k] for k in ("fingerprint", "mice_fct_p99_us",
                                      "goodput", "sim_ns", "flows")}
            print("  modelled, input 0 (exact): mice FCT p99 %.3f us, "
                  "goodput %.6f, fingerprint %s" % (
                      first["mice_fct_p99_us"], first["goodput"],
                      first["fingerprint"]))
        if t.values is not None:
            entry["layers"] = t.values
            for m in spec["per_layer"]:
                print("    %-34s %12.6g %-6s moves %s" % (
                    m["name"], t.values[m["name"]], m["unit"],
                    LAYER_MAP[m["name"]][0]))
        report["workloads"][w] = entry
    out_path = os.path.join(BUILD_DIR, "benchmark_result.json")
    with open(out_path, "w") as f:
        json.dump(report, f, indent=2)
    print("\nwrote %s; %s" % (out_path, "all checks passed" if ok else
                              "FAILED (see above)"))
    return ok


def write_pins(spec):
    """Records the modelled results of inputs 0..PINNED_INPUTS-1 at the
    default seed as the new pins."""
    pins = {"seed": DEFAULT_SEED, "workloads": {}}
    for w in (w["name"] for w in spec["workloads"]):
        rep = Repeater(w, DEFAULT_SEED, pins, 1.0)
        reps = [rep.run(i) for i in range(PINNED_INPUTS)]
        if rep.failures:
            return False
        pins["workloads"][w] = {
            "sim_ns": reps[0]["sim_ns"],
            "fingerprints": [r["fingerprint"] for r in reps],
            "mice_fct_p99_us": [r["mice_fct_p99_us"] for r in reps],
            "goodput": [r["goodput"] for r in reps]}
    with open(PINS_PATH, "w") as f:
        json.dump(pins, f, indent=2)
        f.write("\n")
    print("wrote %s" % PINS_PATH)
    return True


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="measure this workload only")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="time per measurement (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="horizons / 10, minimal repetitions")
    parser.add_argument("--write-pins", action="store_true",
                        help="re-record benchmark/pins.json")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    spec = load_spec()
    build()
    if args.write_pins:
        return 0 if write_pins(spec) else 1
    with open(PINS_PATH) as f:
        pins = json.load(f)
    seconds = args.seconds if args.seconds is not None \
        else spec["run_seconds"]
    if args.workload:
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            parser.error("unknown workload %s" % args.workload)
        m = Measurement(spec, pins, args.workload, args.seed, seconds,
                        args.trace == 1)
        if m.values is None:
            log("run.py: %s: no measurement succeeded" % args.workload)
            return 1
        print(m.result_line(spec))
        return 0
    if args.smoke:
        return 0 if run_full(spec, pins, args.seed, 0.0, 10.0) else 1
    return 0 if run_full(spec, pins, args.seed, seconds, 1.0) else 1


if __name__ == "__main__":
    sys.exit(main())
