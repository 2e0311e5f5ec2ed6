#!/usr/bin/env bash
# Every workload untraced, then traced; exits 1 if any run is incorrect.
# Usage, from the root of a checkout: bash perfbench/all.sh [seed]
set -u
seed="${1:-0}"
status=0
for workload in sweeps-1d beam-width budget-phase; do
    for trace in 0 1; do
        python3 perfbench/run.py --workload "$workload" --seed "$seed" \
            --seconds 32 --trace "$trace" || status=1
    done
done
exit "$status"
