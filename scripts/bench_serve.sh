#!/usr/bin/env bash
# Regenerates BENCH_serve.json at the workspace root: sustained QPS and
# per-request latency percentiles for the inference server under an
# closed-loop client load, plus the chaos-ladder robustness counters
# (reload rejections, breaker trips, shed/timeout handling, recovery).
#
# Usage:
#   scripts/bench_serve.sh                 # full run (8 clients x 200)
#   BENCH_SMOKE=1 scripts/bench_serve.sh   # fast CI smoke pass
#
# TRAFFIC_THREADS caps the kernel worker pool (default: all cores).
set -euo pipefail
cd "$(dirname "$0")/.."

export TRAFFIC_THREADS="${TRAFFIC_THREADS:-$(nproc)}"

cargo run --release -q --bin serve -- bench
echo
echo "--- BENCH_serve.json ---"
cat BENCH_serve.json
