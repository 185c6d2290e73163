#!/usr/bin/env bash
# Full local CI gate: build, tests, formatting, and lints must all pass.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --workspace (every unit, integration, property and serving test)"
cargo test -q --workspace

echo "==> perfbench tests (the benchmark builds against these crates by path)"
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

echo "==> exp_serve (serving benchmark -> results/BENCH_6.json)"
cargo build --release -q -p leva-bench --bin exp_serve
./target/release/exp_serve --scale 0.2 --iters 60 >/dev/null

echo "==> exp_discovery (schema-free discovery benchmark -> results/BENCH_7.json)"
cargo build --release -q -p leva-bench --bin exp_discovery
./target/release/exp_discovery --scale 0.2 >/dev/null

echo "==> exp_mmap (out-of-core artifact benchmark -> results/BENCH_8.json + BENCH_9.json)"
cargo build --release -q -p leva-bench --bin exp_mmap
./target/release/exp_mmap --scale 0.2 >/dev/null

echo "==> exp_incremental (delta-ingestion benchmark -> results/BENCH_10.json)"
cargo build --release -q -p leva-bench --bin exp_incremental
./target/release/exp_incremental --scale 0.2 >/dev/null

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "All checks passed."
