#!/usr/bin/env bash
# perf/run.sh - builds mm_perf (Release, in perf/build) and runs the
# repository's end-to-end benchmark.  See perf/README.md.
#
#   perf/run.sh --workload W [--seed N] [--seconds S] [--trace [0|1]]
#       one workload in its own process; the last output line is its JSON
#       result (end-to-end metrics, or per-layer ones with --trace, which
#       also writes perf/out/W.trace.json)
#   perf/run.sh [--seed N] [--seconds S] [--trace [0|1]]
#       all four workloads, one process each
#   perf/run.sh --smoke
#       all four at toy sizes, untraced and traced; fails on any failed
#       output check or on a metric that BENCHMARK.json does not declare
#
# Run from anywhere; build output goes to stderr.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/build"
out="$here/out"
workloads=(cube_routes hier_hostile daemon_locate daemon_mix)

jobs="$(nproc 2>/dev/null || echo 2)"
if (( jobs > 4 )); then jobs=4; fi
cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release 1>&2
cmake --build "$build" --target mm_perf -j "$jobs" 1>&2
mkdir -p "$out"
perf="$build/mm_perf"

if [[ "${1:-}" == "--smoke" ]]; then
    start=$SECONDS
    for w in "${workloads[@]}"; do
        for trace in 0 1; do
            line="$("$perf" --workload "$w" --smoke --trace "$trace" --trace-dir "$out" \
                | tail -n 1)"
            python3 "$here/compare.py" --check "$trace" <<<"$line"
            echo "smoke: $w trace=$trace ok"
        done
    done
    echo "smoke: all workloads passed in $((SECONDS - start)) s"
    exit 0
fi

for arg in "$@"; do
    if [[ "$arg" == "--workload" ]]; then
        exec "$perf" "$@" --trace-dir "$out"
    fi
done

status=0
for w in "${workloads[@]}"; do
    "$perf" --workload "$w" "$@" --trace-dir "$out" || status=$?
done
exit "$status"
