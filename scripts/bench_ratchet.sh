#!/usr/bin/env bash
# Scale-path performance ratchet: fails when the incremental-frontier
# kernel regresses against the reference pool walk (the `pool` arm:
# per-query pool builds, SlrhConfig::reference_walk), the 65k
# wall-clock ceiling, or
# 1.3x the best after_min_ms recorded for 16384x64 in BENCH_scale.json
# (cases and history entries both count).
#
#   scripts/bench_ratchet.sh           # one interleaved A/B round + 65k smoke + regression gate
#   scripts/bench_ratchet.sh --smoke   # 65k smoke only (fast CI lane)
#
# Frontier-only cases (65536x256, 100000x1000) carry an explicit
# '"before": "not run (pool path exceeds 30 s ceiling)"' marker in
# BENCH_scale.json: the pool arm is unaffordable there, so those cases
# are floor-only — the ratchet checks their absolute wall-clock ceiling
# and never a before/after ratio. The 16384x64 case, where both arms
# run, pins the ratio.
#
# The recorded numbers live in BENCH_scale.json; regenerate with
#   cargo run -p bench --release --bin scale_ab
# and append a commit-stamped round without a full rewrite with
#   scripts/perf_append.sh
set -euo pipefail
cd "$(dirname "$0")/.."

mode="--check"
if [[ "${1:-}" == "--smoke" ]]; then
    mode="--smoke"
fi

cargo build --release -p bench
exec cargo run -p bench --release --bin scale_ab -- "$mode"
