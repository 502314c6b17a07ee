#!/usr/bin/env bash
# Builds the `emigre` server and the benchmark from source, then runs the
# benchmark with every argument passed through, e.g.
#
#   bash perfbench/run.sh --workload scale-cold --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh diff old-trace.json new-trace.json
#
# Run it from the repository root. Build output goes to stderr, so the last
# line on stdout is the benchmark's JSON result.
set -euo pipefail
if [ ! -f Cargo.toml ] || [ ! -d crates ]; then
    echo "perfbench: run from the repository root (no Cargo.toml or crates/ here)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin emigre >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --server-bin "$CARGO_TARGET_DIR/release/emigre" "$@"
