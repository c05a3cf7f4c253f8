#!/usr/bin/env python3
"""Perf-regression smoke over bench_perf_engine's BENCH_perf.json.

Usage: check_perf.py <fresh.json> <committed-baseline.json>

Gating:
  - the fresh run's sweep determinism flag must be true (identical merged
    sweep results at every worker-thread count) — a mismatch means the
    engine's output depends on scheduling, which breaks the repo's
    bit-identical-for-fixed-seed contract;
  - the fresh scaling section must exist, be non-empty, and carry a result
    fingerprint per row;
  - every deterministic integer counter a section records (COUNTERS below:
    scaling dispatches, deliveries, delivery_dispatches,
    predefined_visits (predefined-phase connections visited),
    total_matches and the per-segment drain's drain_epochs,
    drain_clean_pairs and drain_dirty_pairs, storm
    blackholed_bytes and exclusion_churn, the control_loss drop, fallback
    and stranded-byte counts, the data_loss drop, corruption, ARQ
    (max_backoff_reached included) and completion counts) must equal the
    committed row's under the fingerprint rule below (same row identity and
    sim_ns). The counters are simulated output the fingerprints do not
    hash;
  - a scaling row's fingerprint must match the committed baseline's row
    when both describe the same run (same system, num_tors AND sim_ns —
    fingerprints hash the simulated output, so they only compare across
    equal durations). A mismatch means simulated behaviour changed at an N
    the golden tests don't cover;
  - the fresh storm section (the fault path under a mid-run zonal burst)
    must exist, be non-empty, and its row fingerprints must match the
    committed baseline under the same matching rule — the storm rows are
    the fault path's bit-identity witness;
  - the fresh control_loss section (the seeded lossy control plane, with
    and without the per-slot oblivious fallback) must exist, be non-empty,
    and its row fingerprints must match the committed baseline — the lossy
    rows are the control-fault path's bit-identity witness;
  - the fresh data_loss section (the seeded lossy data plane, without and
    with the end-host ARQ, plus a lossless row and a zero-loss row) must
    exist, be non-empty, and its row fingerprints must match the committed
    baseline — the lossy-data rows are the data-fault path's bit-identity
    witness;
  - in the fresh file, every lossless row (channel never constructed) and
    every zero-loss row (channel constructed with every probability 0, ARQ
    off) must fingerprint-match the scaling row of the same system, N and
    sim_ns, and the zero-loss rows must exist. A zero-loss run keeps the
    negotiator's scheduled phase on the per-slot walk while the scaling run
    drains it per queue segment, so a mismatch means the two paths
    disagree;
  - a readable committed baseline must carry every fingerprinted section
    the fresh run produced. A missing baseline section means the committed
    BENCH_perf.json predates the section and was never regenerated, so the
    new fault path would ship with no bit-identity witness at all.
  Exit code 1 on any of these.

Non-gating (::warning:: only — runner hardware varies, a human decides):
  - aggregate events/sec over the scaling rows common to both files
    (matched by system name, num_tors and sim_ns, like every other
    comparison here; wall-clock noise on shared CI runners makes per-run
    comparisons meaningless) regressed more than 30%;
  - any individual scaling row regressed more than 30% vs its matched
    baseline row (per-N trend, noisier than the aggregate);
  - a system's scaling *shape* — its N=256 events/sec divided by its N=16
    events/sec at the same sim_ns — degraded more than 15% vs the committed
    baseline. Absolute events/sec moves with the runner, but the large-N /
    small-N ratio mostly cancels hardware speed, so a shape drop means the
    per-event cost curve itself got steeper with fabric size.
"""
import json
import sys

REGRESSION_THRESHOLD = 0.30
SHAPE_THRESHOLD = 0.15
SHAPE_SMALL_N = 16
SHAPE_LARGE_N = 256


def load(path):
    with open(path) as f:
        return json.load(f)


def run_key(r):
    """A scaling row's identity: system, size and duration."""
    return (r["name"], r["num_tors"], r.get("sim_ns"))


def matched_aggregate(fresh, baseline):
    base_runs = {run_key(r): r for r in baseline.get("scaling", [])}
    events = wall = base_events = base_wall = 0.0
    matched = 0
    for r in fresh.get("scaling", []):
        key = run_key(r)
        if key not in base_runs:
            continue
        matched += 1
        events += r["events"]
        wall += r["wall_seconds"]
        base_events += base_runs[key]["events"]
        base_wall += base_runs[key]["wall_seconds"]
    if matched == 0 or wall <= 0 or base_wall <= 0:
        return None
    return matched, events / wall, base_events / base_wall


def row_context(r):
    """Human-readable identity of one section row: which system, at what
    size, under which sub-configuration, over which duration."""
    parts = [f"system={r.get('name', '?')}", f"N={r.get('num_tors', '?')}"]
    if r.get("label"):
        parts.append(f"label={r['label']}")
    parts.append(f"sim_ns={r.get('sim_ns', '?')}")
    return " ".join(parts)


# Deterministic integer counters per section, gated for exact equality
# against the committed row alongside the fingerprint.
COUNTERS = {
    "scaling": ("dispatches", "deliveries", "delivery_dispatches",
                "predefined_visits", "total_matches", "drain_epochs",
                "drain_clean_pairs", "drain_dirty_pairs"),
    "storm": ("blackholed_bytes", "exclusion_churn"),
    "control_loss": ("control_dropped", "degraded_slots", "fallback_bytes",
                     "stranded_bytes"),
    "data_loss": ("data_dropped_bytes", "data_corrupted_bytes",
                  "retransmitted_bytes", "rto_fires", "spurious_retx",
                  "max_backoff_reached", "completed"),
}


def check_section(fresh, baseline, section, missing_hint, mismatch_hint):
    """Validates one fingerprinted section; returns True when gating failed.

    Rows are matched to the committed baseline by (name, num_tors, label);
    fingerprints and COUNTERS only compare across equal sim_ns (they are
    simulated output, so different durations are different runs). A
    mismatch prints the offending row's full context so the failure names
    the exact configuration that diverged.
    """
    rows = fresh.get(section, [])
    if not rows:
        print(f"::error::fresh perf JSON has no {section} section — "
              f"bench_perf_engine did not record {missing_hint}")
        return True
    failed = False
    if baseline and not baseline.get(section):
        # An unreadable baseline ({}) already warned and skips comparison;
        # a readable baseline that simply lacks this section is different:
        # the committed BENCH_perf.json predates the section and was never
        # regenerated, so the section would ship with no witness.
        print(f"::error::committed baseline has no {section} section — "
              "regenerate the committed BENCH_perf.json so the section's "
              "fingerprints are pinned")
        failed = True
    base_rows = {(r["name"], r["num_tors"], r.get("label")): r
                 for r in baseline.get(section, [])}
    compared = 0
    for r in rows:
        key = (r["name"], r["num_tors"], r.get("label"))
        if "fingerprint" not in r:
            print(f"::error::{section} row [{row_context(r)}] carries no "
                  "result fingerprint — the bit-identity witness is missing")
            failed = True
            continue
        b = base_rows.get(key)
        if b is None:
            continue
        if b.get("fingerprint") and b.get("sim_ns") == r.get("sim_ns"):
            compared += 1
            if b["fingerprint"] != r["fingerprint"]:
                print(f"::error::{section} fingerprint mismatch for "
                      f"[{row_context(r)}]: {r['fingerprint']} vs committed "
                      f"{b['fingerprint']} — {mismatch_hint}")
                failed = True
        if b.get("sim_ns") == r.get("sim_ns"):
            for counter in COUNTERS.get(section, ()):
                if counter not in b:
                    continue
                if r.get(counter) != b[counter]:
                    print(f"::error::{section} {counter} mismatch for "
                          f"[{row_context(r)}]: {r.get(counter)} vs "
                          f"committed {b[counter]} — {mismatch_hint}")
                    failed = True
        if b.get("events_per_sec") and b.get("sim_ns") == r.get("sim_ns"):
            # Same duration only: a 30 ms paper-scale run vs the 2 ms
            # baseline has a different warm-up fraction and steady-state
            # mix, so its events/sec is not comparable.
            ratio = r["events_per_sec"] / b["events_per_sec"]
            if ratio < 1.0 - REGRESSION_THRESHOLD:
                print(f"::warning::{section} events/sec for "
                      f"[{row_context(r)}] regressed "
                      f"{(1.0 - ratio) * 100:.0f}% vs the committed "
                      "baseline (non-gating: runner hardware varies)")
    skipped = len(rows) - compared
    note = (f" ({skipped} rows without a comparable baseline — different "
            "sim_ns or not in the committed file)" if skipped else "")
    print(f"{section}: {len(rows)} rows, {compared} fingerprints and "
          f"counters compared against the baseline{note}")
    return failed


WITNESS_LABELS = ("lossless", "zero loss")


def check_witness_rows(fresh):
    """Gates the fresh file's lossless and zero-loss data_loss rows against
    its own scaling rows; returns True when gating failed."""
    scaling = {run_key(r): r for r in fresh.get("scaling", [])}
    failed = False
    compared = 0
    zero_loss_rows = 0
    for r in fresh.get("data_loss", []):
        if r.get("label") not in WITNESS_LABELS:
            continue
        zero_loss_rows += r.get("label") == "zero loss"
        s = scaling.get(run_key(r))
        if s is None:
            continue
        compared += 1
        if s.get("fingerprint") != r.get("fingerprint"):
            print(f"::error::data_loss witness [{row_context(r)}] "
                  f"fingerprint {r.get('fingerprint')} != scaling row "
                  f"{s.get('fingerprint')} — a data channel that drops "
                  "nothing changed the simulated output")
            failed = True
    if zero_loss_rows == 0:
        print("::error::fresh data_loss section has no zero-loss row — the "
              "per-slot vs per-segment witness is missing")
        failed = True
    print(f"data_loss witness: {compared} lossless/zero-loss rows compared "
          "against the fresh scaling rows")
    return failed


def scaling_shapes(rows):
    """Per (system, sim_ns): events/sec at N=256 over events/sec at N=16."""
    by_key = {run_key(r): r for r in rows}
    shapes = {}
    for (name, n, sim_ns), small in by_key.items():
        if n != SHAPE_SMALL_N:
            continue
        large = by_key.get((name, SHAPE_LARGE_N, sim_ns))
        if (large is None or not small.get("events_per_sec")
                or not large.get("events_per_sec")):
            continue
        shapes[(name, sim_ns)] = (large["events_per_sec"]
                                  / small["events_per_sec"])
    return shapes


def check_scaling_shape(fresh, baseline):
    """Warns (non-gating) when the N=256/N=16 events/sec ratio degrades."""
    fresh_shapes = scaling_shapes(fresh.get("scaling", []))
    base_shapes = scaling_shapes(baseline.get("scaling", []))
    compared = 0
    for key in sorted(fresh_shapes):
        base_ratio = base_shapes.get(key)
        if base_ratio is None or base_ratio <= 0:
            continue
        compared += 1
        rel = fresh_shapes[key] / base_ratio
        name, sim_ns = key
        if rel < 1.0 - SHAPE_THRESHOLD:
            print(f"::warning::scaling shape for {name} at sim_ns={sim_ns} "
                  f"degraded {(1.0 - rel) * 100:.0f}%: "
                  f"N={SHAPE_LARGE_N}/N={SHAPE_SMALL_N} events/sec ratio is "
                  f"{fresh_shapes[key]:.3f} vs baseline {base_ratio:.3f} — "
                  "the per-event cost curve got steeper with fabric size "
                  "(non-gating: a human decides)")
    if compared:
        print(f"scaling shape: {compared} N={SHAPE_LARGE_N}/N="
              f"{SHAPE_SMALL_N} ratios compared against the baseline")


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        fresh = load(sys.argv[1])
    except (OSError, json.JSONDecodeError) as e:
        print(f"::error::fresh perf JSON missing ({e}) — the perf bench "
              "crashed before writing its results")
        return 1
    try:
        baseline = load(sys.argv[2])
    except (OSError, json.JSONDecodeError) as e:
        # The baseline comparison is non-gating; a missing/corrupt committed
        # file must not fail the determinism gate.
        print(f"::warning::committed baseline unreadable ({e}); "
              "skipping the regression comparison")
        baseline = {}

    failed = False
    sweep = fresh.get("sweep", {})
    if sweep.get("deterministic") is not True:
        print("::error::sweep determinism fingerprint mismatch across "
              "thread counts — simulation output depends on scheduling")
        failed = True
    else:
        reason = sweep.get("skipped_reason")
        note = f" (multi-thread rows skipped: {reason})" if reason else ""
        print(f"determinism: PASS{note}")

    if check_section(fresh, baseline, "scaling",
                     "events/sec vs N",
                     "simulated output changed at an N the golden tests "
                     "don't cover"):
        failed = True
    if check_section(fresh, baseline, "storm",
                     "the fault path",
                     "the simulated fault path changed behaviour"):
        failed = True
    if check_section(fresh, baseline, "control_loss",
                     "the lossy control plane",
                     "the lossy control plane (drop/delay/dup or the "
                     "oblivious fallback) changed behaviour"):
        failed = True
    if check_section(fresh, baseline, "data_loss",
                     "the lossy data plane",
                     "the lossy data plane (per-hop drop/corrupt or the "
                     "end-host ARQ) changed behaviour"):
        failed = True
    if check_witness_rows(fresh):
        failed = True
    check_scaling_shape(fresh, baseline)

    agg = matched_aggregate(fresh, baseline)
    if agg is None:
        print("no scaling rows in common with the committed baseline; "
              "skipping the regression comparison")
    else:
        matched, fresh_eps, base_eps = agg
        ratio = fresh_eps / base_eps if base_eps > 0 else float("inf")
        print(f"aggregate events/sec over {matched} matched scaling rows: "
              f"{fresh_eps:,.0f} vs baseline {base_eps:,.0f} "
              f"({ratio:.2f}x)")
        if ratio < 1.0 - REGRESSION_THRESHOLD:
            print(f"::warning::aggregate events/sec regressed "
                  f"{(1.0 - ratio) * 100:.0f}% vs the committed "
                  f"BENCH_perf.json (non-gating: runner hardware varies)")

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
