#!/usr/bin/env bash
# Builds the benchmark once, runs all six workloads untraced and then
# traced for each seed, and appends every record to
# benchmark/out/result-<commit>-<seed>.json (one JSON object per line;
# read it with compare.py).
#
#   benchmark/run.sh [seed ...]        # default: seed 1
set -euo pipefail
cd "$(dirname "$0")/.."

seeds=("$@")
[ ${#seeds[@]} -eq 0 ] && seeds=(1)
commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
started=$SECONDS

cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/kv-benchmark"
mkdir -p benchmark/out

for seed in "${seeds[@]}"; do
    out="benchmark/out/result-$commit-$seed.json"
    pass=$SECONDS
    "$bin" --seed "$seed" --trace 0 --out "$out" >/dev/null
    echo "seed $seed: untraced pass took $((SECONDS - pass)) s"
    pass=$SECONDS
    "$bin" --seed "$seed" --trace 1 --out "$out" >/dev/null
    echo "seed $seed: traced pass took $((SECONDS - pass)) s; spans in benchmark/out/trace-<workload>.json"
    echo "seed $seed: records appended to $out"
done
echo "total wall-clock: $((SECONDS - started)) s"
