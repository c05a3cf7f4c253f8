#!/usr/bin/env bash
# Run every figure/table bench binary and collect its stdout under
# bench/out/<name>.txt, for the perf-trajectory tooling and for eyeballing
# against the paper's evaluation (§4).
#
# Usage:
#   scripts/run_benches.sh [--threads N] [--paper-scale] [build-dir]
#
# --paper-scale runs the full paper-fidelity sweep: NEG_DURATION_MS=30
# (the paper's simulated duration, ~15x the smoke default) unless the
# environment already pins a duration. Expect tens of minutes on one core;
# the nightly CI job uses this mode and uploads the resulting
# <build-dir>/BENCH_perf.json.
#
# Environment:
#   NEG_DURATION_MS    simulated milliseconds per run (default: each
#                      bench's own short default; the paper uses 30).
#   NEG_BENCH_THREADS  sweep worker threads per bench (default: hardware
#                      concurrency; --threads overrides). Any value yields
#                      byte-identical bench output — only wall time moves.
#   NEG_PERF_JSON      where bench_perf_engine writes its machine-readable
#                      results (default: <build-dir>/BENCH_perf.json). The
#                      committed <repo>/BENCH_perf.json is the baseline
#                      scripts/check_perf.py gates against; re-record it
#                      only on purpose, with NEG_PERF_JSON=$PWD/BENCH_perf.json.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

threads="${NEG_BENCH_THREADS:-}"
paper_scale=0
positional=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --threads)
      [[ $# -ge 2 ]] || { echo "error: --threads needs a value" >&2; exit 2; }
      threads="$2"; shift 2 ;;
    --threads=*)
      threads="${1#--threads=}"; shift ;;
    --paper-scale)
      paper_scale=1; shift ;;
    *)
      positional+=("$1"); shift ;;
  esac
done
if [[ "${paper_scale}" -eq 1 ]]; then
  # The paper's 30 ms simulated duration; an explicit NEG_DURATION_MS wins
  # so partial paper-scale runs stay possible.
  export NEG_DURATION_MS="${NEG_DURATION_MS:-30}"
  echo "paper-scale mode: NEG_DURATION_MS=${NEG_DURATION_MS}"
fi
if [[ -z "${threads}" ]]; then
  threads="$(nproc 2>/dev/null || echo 1)"
fi
if ! [[ "${threads}" =~ ^[0-9]+$ && "${threads}" -ge 1 ]]; then
  echo "error: invalid thread count '${threads}'" >&2
  exit 2
fi
export NEG_BENCH_THREADS="${threads}"

build_dir="${positional[0]:-${repo_root}/build}"
bench_dir="${build_dir}/bench"
out_dir="${repo_root}/bench/out"

if [[ ! -d "${bench_dir}" ]]; then
  echo "error: ${bench_dir} not found — build first:" >&2
  echo "  cmake -B '${build_dir}' -S '${repo_root}' && cmake --build '${build_dir}' -j" >&2
  exit 1
fi

mkdir -p "${out_dir}"

echo "sweep threads: ${NEG_BENCH_THREADS}"

# bench_perf_engine emits the machine-readable perf trajectory (including
# the chosen thread count as "bench_threads"). It lands in the build dir,
# so a local run never rewrites the committed baseline.
export NEG_PERF_JSON="${NEG_PERF_JSON:-${build_dir}/BENCH_perf.json}"

# Every bench/bench_*.cpp source must have produced a binary: a silent
# glob over whatever happens to exist would let a bench dropped from the
# build (or a broken add_executable) pass unnoticed and quietly shrink the
# recorded trajectory. bench_micro_gbench is the one sanctioned exception —
# CMake gates it on find_package(benchmark), which the container may lack.
missing=0
for src in "${repo_root}"/bench/bench_*.cpp; do
  name="$(basename "${src}" .cpp)"
  if [[ ! -x "${bench_dir}/${name}" ]]; then
    if [[ "${name}" == "bench_micro_gbench" ]]; then
      echo "note: ${name} not built (Google Benchmark not found); skipping"
    else
      echo "error: expected bench binary missing: ${bench_dir}/${name}" >&2
      missing=$((missing + 1))
    fi
  fi
done
if [[ "${missing}" -gt 0 ]]; then
  echo "error: ${missing} bench binaries missing — rebuild: cmake --build '${build_dir}' -j" >&2
  exit 1
fi

shopt -s nullglob
failures=0
ran=0
for bin in "${bench_dir}"/bench_*; do
  [[ -x "${bin}" && -f "${bin}" ]] || continue
  name="$(basename "${bin}")"
  if [[ "${name}" == "bench_micro_gbench" ]]; then
    # Google Benchmark emits its own timing table; keep it, but don't let a
    # missing-counter quirk fail the whole sweep.
    echo "== ${name} (microbenchmarks)"
    "${bin}" --benchmark_min_time=0.01 >"${out_dir}/${name}.txt" 2>&1 || {
      echo "   FAILED (see ${out_dir}/${name}.txt)"; failures=$((failures + 1)); }
    ran=$((ran + 1))
    continue
  fi
  echo "== ${name}"
  if "${bin}" >"${out_dir}/${name}.txt" 2>&1; then
    ran=$((ran + 1))
  else
    echo "   FAILED (see ${out_dir}/${name}.txt)"
    failures=$((failures + 1))
  fi
done

echo
echo "ran ${ran} benches -> ${out_dir} (${failures} failed)"
if [[ -f "${NEG_PERF_JSON}" ]]; then
  echo "perf trajectory -> ${NEG_PERF_JSON}"
fi
exit "$((failures > 0 ? 1 : 0))"
