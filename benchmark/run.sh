#!/usr/bin/env bash
# Builds the benchmark package and runs it from the checkout's root.
#   benchmark/run.sh [SEED]          the whole benchmark (see README.md)
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/isp-benchmark" "$@"
