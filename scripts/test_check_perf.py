#!/usr/bin/env python3
"""Self-test of check_perf.py's gate, run on the committed BENCH_perf.json.

Usage: test_check_perf.py <check_perf.py> <BENCH_perf.json>

Runs the gate three ways, on copies built in a temporary directory:
  - the file against itself: exit 0, and every fingerprinted section
    compares a nonzero number of rows;
  - against a copy with one scaling fingerprint changed: exit 1;
  - against a copy whose rows all carry another system name at the same
    sim_ns, so no fresh row finds its committed twin: exit 1.
Exits 1 when any of these expectations fails.
"""
import copy
import json
import os
import re
import subprocess
import sys
import tempfile

SECTIONS = ("scaling", "storm", "control_loss", "data_loss")


def gate(script, fresh, baseline):
    proc = subprocess.run([sys.executable, script, fresh, baseline],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def write(path, data):
    with open(path, "w") as f:
        json.dump(data, f)
    return path


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    script, committed = sys.argv[1], sys.argv[2]
    with open(committed) as f:
        data = json.load(f)

    failures = []

    def expect(case, baseline, want):
        code, out = gate(script, committed, baseline)
        if code != want:
            failures.append(f"{case}: exit {code}, expected {want}\n{out}")
        return out

    out = expect("against itself", committed, 0)
    for section in SECTIONS:
        m = re.search(rf"^{section}: \d+ rows, (\d+) fingerprints", out,
                      re.MULTILINE)
        if m is None or int(m.group(1)) == 0:
            failures.append(f"against itself: {section} compared no rows\n"
                            f"{out}")

    with tempfile.TemporaryDirectory() as tmp:
        changed = copy.deepcopy(data)
        row = changed["scaling"][0]
        row["fingerprint"] = "0" if row["fingerprint"] != "0" else "1"
        expect("one scaling fingerprint changed",
               write(os.path.join(tmp, "changed.json"), changed), 1)

        renamed = copy.deepcopy(data)
        for section in SECTIONS:
            for r in renamed[section]:
                r["name"] += " (renamed)"
        expect("no row matches at the same sim_ns",
               write(os.path.join(tmp, "renamed.json"), renamed), 1)

    for failure in failures:
        print(f"FAIL {failure}")
    print(f"check_perf.py self-test: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
