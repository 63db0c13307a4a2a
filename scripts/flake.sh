#!/usr/bin/env bash
# Flake detector: run the test suite N times and count failures per test.
#
#   scripts/flake.sh N                      # cargo test -q --workspace, N times
#   scripts/flake.sh 20 -p ora-core --lib   # extra arguments replace --workspace
#
# Prints one line per run, a pass count, and "<failures>/<runs>  <test>"
# for every test that failed at least once. Exits 1 if any run failed,
# 0 when all N runs passed. A compile error fails fast (exit 1) instead
# of being reported as N failed runs.
set -uo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 1 || ! $1 =~ ^[1-9][0-9]*$ ]]; then
  echo "usage: scripts/flake.sh N [cargo test args...]" >&2
  exit 2
fi
runs=$1
shift
args=("$@")
[[ ${#args[@]} -eq 0 ]] && args=(--workspace)

if ! cargo test -q --offline --no-run "${args[@]}"; then
  echo "flake: build failed" >&2
  exit 1
fi

log=$(mktemp)
trap 'rm -f "$log"' EXIT
declare -A fails=()
failed_runs=0
for ((i = 1; i <= runs; i++)); do
  if cargo test -q --offline --no-fail-fast "${args[@]}" >"$log" 2>&1; then
    echo "run $i/$runs: ok"
    continue
  fi
  failed_runs=$((failed_runs + 1))
  # libtest prints one "---- <name> stdout ----" header per failed test.
  names=$(sed -n 's/^---- \(.*\) stdout ----$/\1/p' "$log" | sort -u)
  [[ -z $names ]] && names="<a test binary failed without naming a test>"
  while IFS= read -r name; do
    fails[$name]=$((${fails[$name]:-0} + 1))
  done <<<"$names"
  echo "run $i/$runs: FAILED ($(wc -l <<<"$names") test(s))"
done

echo "flake: $((runs - failed_runs))/$runs runs passed (cargo test ${args[*]})"
for name in "${!fails[@]}"; do
  printf '%4d/%d  %s\n' "${fails[$name]}" "$runs" "$name"
done | sort -rn
[[ $failed_runs -eq 0 ]]
