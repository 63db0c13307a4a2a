#!/usr/bin/env bash
# Perf smoke: run the quick ora-meter suites and gate against the
# committed baselines in results/baselines/.
#
# Usage: scripts/perf_smoke.sh [report|enforce] [out_dir]
#
#   report  (default) — run + compare, print regressions, always exit 0
#                       (PR mode: runner hardware differs from the
#                       baseline machine, so a miss is a signal to a
#                       human, not a merge blocker)
#   enforce           — exit non-zero when `bench compare` finds a
#                       regression past the threshold with disjoint CIs
#                       (main-branch mode)
#
# The threshold (percent) can be overridden via PERF_THRESHOLD; the
# suite list via PERF_SUITES (space-separated, default "epcc npb sync
# tasks topo" — the dispatch CI job runs PERF_SUITES=dispatch on its
# own cadence, and the topology CI jobs re-run "sync topo" under
# different injected OMP_ORA_TOPOLOGY shapes).
#
# OMP_ORA_TOPOLOGY defaults to the 2x4x2 reference shape so nested
# lease ordering (and therefore the topo numbers and the committed
# baselines) is identical on every host; export it to gate under a
# different injected machine model.
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-report}"
out="${2:-perf-smoke}"
threshold="${PERF_THRESHOLD:-10}"
suites="${PERF_SUITES:-epcc npb sync tasks topo}"
export OMP_ORA_TOPOLOGY="${OMP_ORA_TOPOLOGY:-2x4x2}"

mkdir -p "$out"
for suite in $suites; do
  cargo run --release --offline -p ora-bench --bin omp_prof -- \
    bench run --quick --suite "$suite" --out-dir "$out"
done

status=0
for suite in $suites; do
  base="results/baselines/BENCH_${suite}.json"
  new="$out/BENCH_${suite}.json"
  if [[ ! -f "$base" ]]; then
    echo "perf-smoke: no baseline $base — skipping comparison" >&2
    continue
  fi
  echo "== compare $suite (threshold ${threshold}%) =="
  if ! cargo run --release --offline -p ora-bench --bin omp_prof -- \
      bench compare "$base" "$new" --threshold "$threshold"; then
    status=1
  fi
done

if [[ $status -ne 0 ]]; then
  if [[ "$mode" == "enforce" ]]; then
    echo "perf-smoke: overhead regression past ${threshold}% — failing (enforce mode)" >&2
    exit 1
  fi
  echo "perf-smoke: overhead regression past ${threshold}% — report-only mode, not failing" >&2
fi
echo "perf-smoke: OK (${mode} mode)"
