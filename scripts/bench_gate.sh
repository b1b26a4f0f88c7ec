#!/usr/bin/env bash
# Bench-regression gate: one `benchmark run`, every end-to-end metric of every
# workload held against the pinned medians in results/benchmark_baseline.json
# (itself a `run --out` record, so it carries nproc, commit and seed).
# `better` and `bound` come from BENCHMARK.json; there is no threshold here.
# The baseline is a ratchet: it moves only in a PR whose CHANGES.md line says so.
#
# Usage: scripts/bench_gate.sh [--self-test]
set -euo pipefail
cd "$(dirname "$0")/.."
BASELINE=results/benchmark_baseline.json

# compare <baseline> <new>: one line per offence, non-zero exit if there is any.
compare() {
  jq -rn --slurpfile manifest BENCHMARK.json --slurpfile base "$1" --slurpfile new "$2" '
    def by_name: map({key: .name, value: .}) | from_entries;
    ($base[0].workloads | by_name) as $old | ($new[0].workloads | by_name) as $now
    | $manifest[0] as $m | $m.workloads[].name as $w
    | if $now[$w].correct != true then "\($w): correct is not true"
      elif $now[$w].failed != 0 then "\($w): \($now[$w].failed) operations failed"
      else $m.end_to_end[] as $e
        | $old[$w].metrics[$e.name].value as $a | $now[$w].metrics[$e.name].value as $b
        | if ($a | type) != "number" or ($b | type) != "number" then "\($w).\($e.name): missing"
          elif ($e.better == "lower" and $b > $a * (1 + $e.bound))
            or ($e.better == "higher" and $b < $a * (1 - $e.bound))
          then "\($w).\($e.name): \($b) against baseline \($a), \($e.better) is better, bound \($e.bound * 100)%"
          else empty end
      end' | awk '{ print "bench_gate: " $0; bad = 1 } END { exit bad }'
}

TMP="$(mktemp -d -t bench_gate.XXXXXX)"
trap 'rm -rf "$TMP"' EXIT

if [[ "${1:-}" == "--self-test" ]]; then
  # expect <pass|fail> <jq edit of the baseline> [text the report must contain]
  expect() {
    jq "$2" "$BASELINE" > "$TMP/edited.json"
    if report="$(compare "$BASELINE" "$TMP/edited.json")"; then got=pass; else got=fail; fi
    if [[ "$got" != "$1" || "$report" != *"${3:-}"* ]]; then
      echo "bench_gate self-test: '$2' gave $got, wanted $1 naming '${3:-}': $report" >&2
      exit 1
    fi
  }
  of() { echo "(.workloads[] | select(.name == \"$1\"))"; }
  expect pass '.'
  expect fail "$(of cluster_mix).metrics.ops_per_s.value /= 2" cluster_mix.ops_per_s
  expect fail "$(of sim_airline).metrics.msgs_per_request.value *= 1.06" sim_airline.msgs_per_request
  expect pass "$(of sim_airline).metrics.msgs_per_request.value *= 1.04"
  expect fail "$(of socket_solo).correct = false" socket_solo
  expect fail "$(of shard_churn).failed = 3" shard_churn
  echo "bench_gate self-test: OK"
  exit 0
fi

echo "==> bench_gate: baseline $(jq -c .environment "$BASELINE")"
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- run --out "$TMP/run.json"
compare "$BASELINE" "$TMP/run.json"
echo "bench_gate: OK"
