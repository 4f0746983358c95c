#!/usr/bin/env bash
# Smoke check of the benchmark itself: offline build, self-tests, a quick
# run of every workload, and no drift between BENCHMARK.json and the results.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test --offline --manifest-path benchmark/Cargo.toml
kvbench="${CARGO_TARGET_DIR:-benchmark/target}/release/kvbench"
"$kvbench" all --quick
"$kvbench" check-names BENCHMARK.json benchmark/out/results.json
