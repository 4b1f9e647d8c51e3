#!/usr/bin/env bash
# Append every machine-readable bench trajectory (BENCH_*.json at the
# workspace root, one JSON object per file) to results/trajectory.jsonl
# as one JSON line per run, stamped with the commit and date. Earlier
# lines are kept, so the file is the history of every collected run.
#
# Usage: scripts/bench_trajectory.sh [--run]
#   --run  first run every bench that emits a BENCH_*.json trajectory
#          (shard_scale, paged_scan, serve_load, query_plan,
#          pairwise_kernel), then collect.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--run" ]]; then
    for bench in shard_scale paged_scan serve_load query_plan pairwise_kernel; do
        echo "== $bench =="
        cargo bench -p fairjob-bench --bench "$bench"
    done
fi

shopt -s nullglob
files=(BENCH_*.json)
if [[ ${#files[@]} -eq 0 ]]; then
    echo "no BENCH_*.json trajectories found — run the benches first" >&2
    echo "(e.g. scripts/bench_trajectory.sh --run)" >&2
    exit 1
fi

mkdir -p results
commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
stamp=$(date -u +%Y-%m-%dT%H:%M:%SZ)
{
    printf '{"commit":"%s","collected_at":"%s","benches":[' "$commit" "$stamp"
    sep=""
    for f in "${files[@]}"; do
        # Each trajectory file is a single JSON object on one line.
        printf '%s%s' "$sep" "$(tr -d '\n' <"$f")"
        sep=","
    done
    printf ']}\n'
} >>results/trajectory.jsonl

echo "appended ${#files[@]} trajectories to results/trajectory.jsonl:"
for f in "${files[@]}"; do echo "  - $f"; done
