#!/usr/bin/env bash
# A/A: the whole benchmark twice on one build and one seed, then the table
# of both values, their gap and pass/fail against each metric's bound.
#   benchmark/aa.sh [SEED]
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-1}"
bash benchmark/run.sh "$seed" "benchmark/out/aa.$seed.a.json"
bash benchmark/run.sh "$seed" "benchmark/out/aa.$seed.b.json"
bash benchmark/run.sh compare "benchmark/out/aa.$seed.a.json" "benchmark/out/aa.$seed.b.json"
