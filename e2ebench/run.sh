#!/usr/bin/env bash
# Builds the benchmark and the multi-call binaries it spawns from
# source, then runs it with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload nlp-threads --seed 1 --seconds 20 --trace 0
#
# Run from anywhere; paths resolve against the repository root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path e2ebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/e2ebench" "$@"
