#!/usr/bin/env bash
# Tier-1 gate: formatting, lints, build, and the full test suite.
# Everything runs offline (no crates.io access needed).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --all-targets -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo clippy -p mix-bench -D warnings"
cargo clippy -p mix-bench --all-targets -- -D warnings

echo "==> cargo clippy -p mix-proto -p mix-serve -D warnings"
cargo clippy -p mix-proto -p mix-serve --all-targets -- -D warnings

echo "==> cargo clippy -p mix-common -p mix-qdom -p mix-relational -D warnings (shared-state modules)"
cargo clippy -p mix-common -p mix-qdom -p mix-relational --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test -q

echo "==> chaos suite (fault injection, fixed seed 0xC0FFEE)"
cargo test -q --test chaos

# No loom/miri in-tree (offline builds): prefetcher concurrency is
# covered by deterministic schedule replay (equivalence sweeps under
# chaos faults) plus gauge-based thread-leak/drop tests instead.
echo "==> prefetch suite (sync equivalence, laziness, thread leaks)"
cargo test -q --test prefetch

echo "==> wire protocol + serve suite (codec round trips, wire-vs-in-process equivalence, admission, shutdown)"
cargo test -q -p mix-proto -p mix-serve

echo "==> shared-state concurrency suite (shared plan cache, pool, worker-pool server)"
cargo test -q -p mix-serve --test serve -- shared_ pooled_ sessions_multiplex
cargo test -q -p mix-common --lib -- pool:: shard:: ring::
cargo test -q -p mix-qdom --lib -- plan_cache shared_plan

# Deterministic single-threaded re-run: the shared-state suites must
# pass when the test harness provides no accidental parallelism.
echo "==> shared-state suite again, RUST_TEST_THREADS=1"
RUST_TEST_THREADS=1 cargo test -q -p mix-serve --test serve -- shared_ pooled_ sessions_multiplex

echo "==> no 'validated:' panics in non-test code or release builds"
if grep -rnE '(panic!|expect|unreachable!)\("validated' crates/*/src src; then
  echo "error: 'validated:' plan invariants must return MixError::Plan, not panic" >&2
  exit 1
fi
if grep -aq 'validated: ' target/release/experiments; then
  echo "error: release binary embeds a 'validated:' panic message" >&2
  exit 1
fi

echo "==> cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> examples/explain.rs smoke run"
cargo run --quiet --release --example explain >/dev/null

echo "==> block_sweep bench smoke run"
cargo bench -p mix-bench --bench block_sweep -- --smoke >/dev/null

echo "==> prefetch_overlap bench smoke run"
cargo bench -p mix-bench --bench prefetch_overlap -- --smoke >/dev/null

echo "==> serve_bench smoke run (pooled server, shared plan cache, concurrent wire sessions)"
cargo bench -p mix-bench --bench serve_bench -- --smoke >/dev/null

echo "==> federation_sweep bench smoke run (shard routing, scatter-gather, merge overhead)"
cargo bench -p mix-bench --bench federation_sweep -- --smoke >/dev/null

echo "==> workload fuzz smoke (fixed-seed 200-case knob-matrix equivalence sweep)"
# Deterministic: default config is seed 0x4d49585f9, 200 cases. A
# failure prints the minimized repro script before exiting non-zero.
cargo run --quiet --release -p mix-workload --bin workload_fuzz

echo "==> workload soak smoke (~10s served-mode chaos soak, invariants only)"
cargo run --quiet --release -p mix-workload --bin workload_soak -- --smoke >/dev/null

echo "==> fuzzer-surfaced regression repros"
cargo test -q --test fuzz_regressions

# perfbench/ is its own Cargo workspace, so nothing above compiles it.
# Build it and run every workload BENCHMARK.json declares for one
# second: each run checks its correctness pin (wire vs in-process, lazy
# vs eager, optimized vs naive, sharded vs unsharded) before timing and
# exits non-zero on a mismatch. Reads BENCHMARK.json and perfbench/,
# writes only perfbench/target/.
echo "==> benchmark build + correctness pins (every BENCHMARK.json workload, 1s, seed 1)"
workloads=$(grep -o '"name": *"[a-z_]*", *"why"' BENCHMARK.json | sed 's/"name": *"\([a-z_]*\)".*/\1/')
if [ -z "$workloads" ]; then
  echo "error: no workloads found in BENCHMARK.json" >&2
  exit 1
fi
for w in $workloads; do
  cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
    --workload "$w" --seed 1 --seconds 1 --trace 0 >/dev/null
done

echo "All checks passed."
