#!/usr/bin/env bash
# Builds the benchmark and ssync-serviced from this checkout, then runs one
# workload. Run from the repository root:
#   bash compile_bench/run.sh --workload paper_grid --seed 1 --seconds 20 --trace 0
# Build output goes to stderr; the last line of stdout is the JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
# Pin the environment: SSYNC_* variables would change daemon cache bounds
# or scoring threads, and with them the measured work.
for var in $(compgen -e | grep '^SSYNC_' || true); do unset "$var"; done
cargo build --release --offline --quiet --manifest-path compile_bench/Cargo.toml >&2
cargo build --release --offline --quiet -p ssync-service --bin ssync-serviced >&2
exec "$CARGO_TARGET_DIR/release/compile-bench" "$@" --daemon "$CARGO_TARGET_DIR/release/ssync-serviced"
