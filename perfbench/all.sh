#!/usr/bin/env bash
# Runs every workload with tracing off, then every workload traced, and
# prints each result. Run from the repository root:
#
#   bash perfbench/all.sh [seed] [seconds]
set -euo pipefail
seed=${1:-1}
seconds=${2:-25}
for trace in 0 1; do
    for workload in paper-trace sim-scale sim-routing serve-stream; do
        echo "== $workload (trace $trace)"
        cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
    done
done
