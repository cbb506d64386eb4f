#!/usr/bin/env bash
# Build the benchmark and run the whole suite: every workload, 5 untraced
# runs + 1 traced run each (2 + 1 with --quick), one process per run.
# Writes benchmark/out/results.json and benchmark/out/<workload>.trace.json.
# Arguments go to `benchmark suite` (--quick, --seed N, --seconds S,
# --runs K, --out FILE).
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --manifest-path benchmark/Cargo.toml
exec cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- suite "$@"
