#!/usr/bin/env bash
# Pre-commit gate: formatting, lints, and the tier-1 build+test suite.
# Fully offline — everything below works without network access.
#
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustdoc: warnings are errors on the first-party crates (vendored shims excluded)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline \
  --exclude bytes --exclude crossbeam --exclude proptest --exclude rand --exclude serde --exclude serde_derive

echo "==> sans-IO guard: the shard engine reads no clock, owns no thread, receives from no channel"
if grep -nE 'Instant::now|\.elapsed\(\)|thread::|recv' crates/dlm-cluster/src/engine.rs; then
  echo "crates/dlm-cluster/src/engine.rs must stay sans-IO: time and frames are arguments of step/end_batch" >&2
  exit 1
fi

echo "==> sans-IO guard: the reliability shim reads no clock and owns no thread (its tests may)"
# Only the code above the test module. No bare `recv` pattern here: the
# receive-side field `recv_next` would match it.
if sed '/^#\[cfg(test)\]/,$d' crates/dlm-cluster/src/reliable.rs | grep -nE 'Instant::now|\.elapsed\(\)|thread::'; then
  echo "crates/dlm-cluster/src/reliable.rs must stay sans-IO: time is an argument of wrap_data/on_frame/on_tick" >&2
  exit 1
fi

echo "==> retired-instrument guard: benchmark/ is the only measuring instrument"
if grep -rnE 'BENCH_sim|BENCH_SMOKE|-p bench|bench_history|criterion' \
  --exclude-dir=.git --exclude-dir=target --exclude=CHANGES.md --exclude=ROADMAP.md --exclude=ISSUE.md --exclude=check.sh .; then
  echo "the second benchmark instrument is retired: measure with \`benchmark run\`, gate with scripts/bench_gate.sh" >&2
  exit 1
fi

echo "==> one-key guard: the search core is the only caller of canonical_fingerprint"
callers=$(grep -l 'canonical_fingerprint(' crates/dlm-check/src/*.rs crates/dlm-check/src/bin/*.rs | grep -v '/canon\.rs$' || true)
if [ "$callers" != "crates/dlm-check/src/search.rs" ]; then
  echo "canonical_fingerprint( must be called from search.rs (Core::key) and nowhere else in crates/dlm-check/src; found: ${callers:-none}" >&2
  exit 1
fi

echo "==> one-canonical-form guard: no enumerated group, no materialised relabelling in the checker"
if grep -rnE 'MAX_BRUTE_NODES|permute_state\(' crates/dlm-check/src; then
  echo "crates/dlm-check/src must not cap or enumerate the symmetry group (MAX_BRUTE_NODES) nor clone a relabelled state (permute_state): the canonical form sorts and streams; the brute-force definition lives in tests/parallel_diff.rs" >&2
  exit 1
fi

echo "==> one-search guard: breadth-first search is the checker's only driver"
# tests/cli.rs is excluded: it asserts that the removed --reduction flag is
# refused as a usage error.
if grep -rnE '[Dd][Pp][Oo][Rr]|\bReduction\b|Options::reduced|--reduction' --exclude=cli.rs \
  crates/dlm-check/src crates/dlm-check/tests crates/dlm-check/examples .claude/skills/verify/SKILL.md; then
  echo "the partial-order reduction is gone (EXPERIMENTS.md says why): no dpor, Reduction, Options::reduced or --reduction in crates/dlm-check or the verify recipe" >&2
  exit 1
fi

echo "==> one-op-path guard: a blocking call is a chunk of one, answered like any other"
if grep -rnE 'Input::Op\b|Caller::|ReplySink|Reply::oneshot|try_once' crates/dlm-cluster/src; then
  echo "crates/dlm-cluster/src has one operation path: NodeHandle sends Input::Ops with one op, the engine answers it through the chunk's completion batch or its waiter's Reply; no Input::Op, Caller, ReplySink or per-call reply constructor" >&2
  exit 1
fi

echo "==> design-reference guard: every DESIGN.md §N cited in code names a '## N.' heading of DESIGN.md"
dangling=0
while IFS=: read -r file line cite; do
  n="${cite##*§}"
  if ! grep -q "^## $n\. " DESIGN.md; then
    echo "$file:$line cites DESIGN.md §$n, but DESIGN.md has no '## $n.' heading" >&2
    dangling=1
  fi
done < <(grep -rnoE 'DESIGN\.md`? §[0-9]+' crates src tests benchmark/src || true)
if [ "$dangling" != 0 ]; then
  exit 1
fi

echo "==> bench gate self-test: scripts/bench_gate.sh --self-test"
scripts/bench_gate.sh --self-test

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> workspace tests: cargo test -q --workspace"
cargo test -q --workspace

echo "==> benchmark crate: cargo test --release --offline --locked --manifest-path benchmark/Cargo.toml"
# benchmark/ is a workspace of its own, so `cargo test --workspace` never
# compiles it; without this an API break in dlm-cluster would surface only
# when the benchmark pipeline runs. --locked: a dependency added to any crate
# the benchmark reaches must fail here, not silently rewrite
# benchmark/Cargo.lock.
cargo test --release --offline --locked --manifest-path benchmark/Cargo.toml

echo "==> chaos smoke: seeded lossy-link schedules (DLM_CHAOS_CASES=${DLM_CHAOS_CASES:-4})"
DLM_CHAOS_CASES="${DLM_CHAOS_CASES:-4}" cargo test -q -p dlm-cluster --test chaos

echo "==> model-check gate: check gate (serial/parallel differential + symmetry acceptance)"
cargo run --release -q -p dlm-check --bin check -- gate

echo "==> trace-analyzer smoke: capture a 4-node cluster trace (under target/), then analyze the committed fixture"
cargo run --release -q -p dlm-harness --bin events -- cluster 4
cargo run --release -q -p dlm-harness --bin events -- results/cluster4-trace.jsonl

echo "==> socket-cluster smoke: 3 dlm-node processes over TCP loopback (bounded deadline)"
cargo build --release -q -p dlm-harness --bin dlm-node
cargo run --release -q -p dlm-harness --bin dlm-harness -- --smoke

echo "==> crash-recovery smoke: SIGKILL the token holder of 3 dlm-node processes, audit the recovery (seed ${DLM_CRASH_SEED:-7})"
cargo run --release -q -p dlm-harness --bin dlm-harness -- --crash-smoke "${DLM_CRASH_SEED:-7}"

echo "All checks passed."
