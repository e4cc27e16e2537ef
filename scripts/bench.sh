#!/usr/bin/env bash
# Run the repo benchmarks and append a machine-readable snapshot as
# BENCH_<n>.json — the next free index is picked automatically, so the
# performance trajectory across PRs stays on record without callers
# managing numbers. Knobs:
#   BENCH=<regex>      benchmark filter   (default: all)
#   BENCHTIME=<spec>   go -benchtime      (default: 1s)
#   BENCH_OUT=<path>   output path        (default: next free BENCH_<n>.json)
set -euo pipefail
cd "$(dirname "$0")/.."

if [ -n "${BENCH_OUT:-}" ]; then
    out="$BENCH_OUT"
else
    n=0
    while [ -e "BENCH_${n}.json" ]; do n=$((n + 1)); done
    out="BENCH_${n}.json"
fi

# Record effective parallelism so multi-core runs (e.g. the CI
# GOMAXPROCS=4 job) are distinguishable from the single-vCPU baseline.
gomaxprocs="${GOMAXPROCS:-$(nproc)}"

raw=$(mktemp)
trap 'rm -f "$raw"' EXIT
# The root package holds the paper-reproduction benchmarks; the two
# internal packages export nothing bench-worthy through the public
# surface, so their hot-path ceilings (lease renewal, replay-guard
# admit, idem dedup) are benchmarked in-package.
go test -bench="${BENCH:-.}" -benchtime="${BENCHTIME:-1s}" -run='^$' . ./internal/core ./internal/broker | tee "$raw"

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v goversion="$(go version)" -v gomaxprocs="$gomaxprocs" '
BEGIN {
    printf "{\n  \"date\": \"%s\",\n  \"go\": \"%s\",\n  \"gomaxprocs\": %s,\n  \"benchmarks\": [", date, goversion, gomaxprocs
    first = 1
}
/^cpu:/ { cpu = substr($0, 6); gsub(/^ +| +$/, "", cpu) }
/^Benchmark/ {
    name = $1; iters = $2
    # Strip the -<GOMAXPROCS> suffix Go appends on multi-core runs so
    # names stay comparable across machines (gomaxprocs is recorded
    # separately above).
    sub(/-[0-9]+$/, "", name)
    ns = ""; bytes = ""; allocs = ""
    for (i = 3; i < NF; i++) {
        if ($(i + 1) == "ns/op") ns = $i
        if ($(i + 1) == "B/op") bytes = $i
        if ($(i + 1) == "allocs/op") allocs = $i
    }
    if (!first) printf ","
    first = 0
    printf "\n    {\"name\": \"%s\", \"iterations\": %s", name, iters
    if (ns != "") printf ", \"ns_per_op\": %s", ns
    if (bytes != "") printf ", \"bytes_per_op\": %s", bytes
    if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
    printf "}"
}
END {
    printf "\n  ],\n  \"cpu\": \"%s\"\n}\n", cpu
}' "$raw" > "$out"

echo "wrote $out"
