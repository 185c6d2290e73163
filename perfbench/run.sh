#!/usr/bin/env bash
# Builds the `leva-serve` daemon and the benchmark from source, then runs
# one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload fit_mf --seed 1 --seconds 35 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); the
# benchmark finds leva-serve beside its own executable there.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin leva-serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
