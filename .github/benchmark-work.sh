#!/usr/bin/env bash
# Runs the repository benchmark's traced seed-1 pass over all four
# workloads and fails when a per-layer work metric differs from its
# committed value.
#
#   .github/benchmark-work.sh BASELINE.json [benchmark flags...]
#
# BASELINE.json maps workload -> metric -> value; it holds only metrics
# that came out identical over repeated seed-1 runs at the same scale, so
# any difference is a change in the work the engine does (pairs compared,
# degrees evaluated, rows, Rng length, sort runs and spill, ...), not
# noise. Run from the repository root. Timing is not gated here.
set -euo pipefail

want=$1
shift
run=$(mktemp)
trap 'rm -f "$run"' EXIT

go run ./benchmark --workload all --seed 1 --trace 1 "$@" | tail -n 1 >"$run"
wrong=$(jq -r '.workloads | to_entries[]
  | select(.value.correct != true or .value.failed != 0)
  | "\(.key): correct \(.value.correct), failed \(.value.failed)"' "$run")
if [ -n "$wrong" ]; then
  echo "benchmark answers wrong or failed:" >&2
  echo "$wrong" >&2
  exit 1
fi
drift=$(jq -r --slurpfile want "$want" '
  .workloads as $run
  | $want[0] | to_entries[] | .key as $w | .value | to_entries[]
  | select($run[$w].metrics[.key].value != .value)
  | "\($w) \(.key): got \($run[$w].metrics[.key].value), committed \(.value)"
' "$run")
if [ -n "$drift" ]; then
  echo "benchmark work drifted from $want:" >&2
  echo "$drift" >&2
  exit 1
fi
echo "benchmark work matches $want"
