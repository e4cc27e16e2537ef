#!/usr/bin/env bash
# Benchmark regression gate: compare a benchmark snapshot against the
# committed baseline and fail when a gated hot-path metric regresses by
# more than BENCH_TOLERANCE percent (default 20).
#
# Usage:
#   scripts/bench_compare.sh                      # run a fresh bench, compare
#   scripts/bench_compare.sh BASE.json            # fresh bench vs BASE.json
#   scripts/bench_compare.sh BASE.json CUR.json   # pure comparison, no run
#
# With no current file, the gated benchmarks are run via scripts/bench.sh
# into a temp snapshot (not committed). The baseline defaults to the
# highest-numbered BENCH_<n>.json in the repo root.
#
# Gated metrics — the fast paths this repo's PRs optimize:
#   - BenchmarkVerifyTrusted/warm           ns/op (cache-hit verification)
#   - BenchmarkFanOutSecure/recipients100   ns/op / 100 (per-recipient
#     cost of a 100-member secure fan-out round)
#   - BenchmarkParseCold/canonical          ns/op (receive-side parse of
#     a signed advertisement via the canonical fast path)
#   - BenchmarkOpenSlice                    ns/op (full receive of one
#     relayed round slice: unwrap + AEAD + parse + bindings + verify)
#   - BenchmarkRelayDrainDurable/recipients100  ns/op / 100 (per-slice
#     cost of a churn round on the WAL-backed relay)
#
# The durable drain is additionally held to an intra-snapshot ratio:
# within the CURRENT snapshot it must stay under BENCH_DURABLE_FACTOR
# (default 2) times BenchmarkRelayDelivery/recipients100 — the same
# round shape on the in-memory relay. Both sides come from one run on
# one machine, so the persistence-tax bound needs no canary.
#
# By default the thresholds compare absolute ns/op, which requires
# baseline and current runs to come from the same machine class. Set
# BENCH_NORMALIZE=1 (the CI bench-gate does) to divide every metric by
# that snapshot's BenchmarkSignedAdvertisement/sign ns/op — one bare RSA
# signature, a machine-speed canary untouched by the gated
# optimizations — so a committed baseline survives runner hardware
# churn while an injected slowdown of a gated path still fails.
#
# The same two paths are additionally gated on allocs_per_op
# (BENCH_ALLOC_TOLERANCE percent, default 10), compared ABSOLUTELY —
# allocation counts do not scale with machine speed, so this gate
# catches the blind spot of canary normalization: a regression that
# slows the RSA canary and the gated paths proportionally (e.g. a
# slower runner class masking a real slowdown, or an added allocation
# on a path whose ns cost drowns in RSA time).
set -euo pipefail
cd "$(dirname "$0")/.."

tolerance="${BENCH_TOLERANCE:-20}"
normalize="${BENCH_NORMALIZE:-0}"
canary="BenchmarkSignedAdvertisement/sign"

baseline="${1:-}"
current="${2:-}"

if [ -z "$baseline" ]; then
    n=0
    while [ -e "BENCH_${n}.json" ]; do n=$((n + 1)); done
    if [ "$n" -eq 0 ]; then
        echo "bench_compare: no committed BENCH_<n>.json baseline found" >&2
        exit 2
    fi
    baseline="BENCH_$((n - 1)).json"
fi
[ -r "$baseline" ] || { echo "bench_compare: unreadable baseline $baseline" >&2; exit 2; }

if [ -z "$current" ]; then
    current=$(mktemp --suffix=.json)
    trap 'rm -f "$current"' EXIT
    echo "bench_compare: running gated benchmarks (baseline: $baseline)"
    BENCH="${BENCH:-BenchmarkVerifyTrusted|BenchmarkFanOutSecure|BenchmarkSignedAdvertisement|BenchmarkParseCold|BenchmarkOpenSlice|BenchmarkRelayDelivery|BenchmarkRelayDrainDurable|BenchmarkTelemetryOverhead|BenchmarkTraceOverhead|BenchmarkAuditOverhead|BenchmarkLivenessOverhead|BenchmarkIdemOverhead|BenchmarkReplayGuardAdmit}" \
        BENCHTIME="${BENCHTIME:-1s}" BENCH_OUT="$current" ./scripts/bench.sh >/dev/null
fi
[ -r "$current" ] || { echo "bench_compare: unreadable current $current" >&2; exit 2; }

# metric_of FILE NAME FIELD — extract one numeric field for one
# benchmark. Prefer jq (any valid JSON); fall back to line-based
# extraction for bench.sh's one-object-per-line layout when jq is
# unavailable.
if command -v jq >/dev/null 2>&1; then
    metric_of() {
        jq -r --arg n "$2" --arg f "$3" \
            '[.benchmarks[] | select(.name == $n) | .[$f]][0] // empty' "$1"
    }
else
    metric_of() {
        # `|| true` keeps a missing metric an *empty* result instead of
        # letting grep's exit status abort the script under set -e; the
        # callers report missing metrics themselves.
        { grep -F "\"name\": \"$2\"" "$1" || true; } |
            sed -n "s/.*\"$3\": \([0-9.e+-]*\).*/\1/p" | head -n 1
    }
fi
ns_of() { metric_of "$1" "$2" ns_per_op; }
allocs_of() { metric_of "$1" "$2" allocs_per_op; }

fail=0
baseNorm=1
curNorm=1
if [ "$normalize" = "1" ]; then
    baseNorm=$(ns_of "$baseline" "$canary")
    curNorm=$(ns_of "$current" "$canary")
    if [ -z "$baseNorm" ] || [ -z "$curNorm" ]; then
        echo "bench_compare: BENCH_NORMALIZE=1 but canary $canary missing from a snapshot" >&2
        exit 2
    fi
    echo "bench_compare: normalizing by $canary (baseline ${baseNorm} ns, current ${curNorm} ns)"
fi
echo "bench_compare: $current vs $baseline (tolerance ${tolerance}%)"
printf '%-42s %14s %14s %9s\n' "metric" "baseline" "current" "delta"

# gate NAME DIVISOR LABEL — units are ns (or signature-equivalents
# when normalizing)
gate() {
    local name="$1" div="$2" label="$3" base cur
    base=$(ns_of "$baseline" "$name")
    cur=$(ns_of "$current" "$name")
    if [ -z "$base" ] || [ -z "$cur" ]; then
        echo "bench_compare: metric $name missing from snapshot" >&2
        fail=1
        return
    fi
    awk -v base="$base" -v cur="$cur" -v div="$div" -v tol="$tolerance" -v label="$label" \
        -v baseNorm="$baseNorm" -v curNorm="$curNorm" '
    BEGIN {
        base /= div * baseNorm; cur /= div * curNorm
        delta = (cur - base) / base * 100
        status = (delta > tol) ? "FAIL" : "ok"
        printf "%-42s %14.4g %14.4g %+8.1f%% %s\n", label, base, cur, delta, status
        exit (delta > tol) ? 1 : 0
    }' || fail=1
}

# gate_allocs NAME DIVISOR LABEL — absolute allocs/op comparison; never
# normalized (see header). Alloc counts are integers, so the percentage
# tolerance doubles as an absolute one on lean paths: a single injected
# allocation on a 2-alloc/op path is +50% and fails.
alloc_tolerance="${BENCH_ALLOC_TOLERANCE:-10}"
gate_allocs() {
    local name="$1" div="$2" label="$3" base cur
    base=$(allocs_of "$baseline" "$name")
    cur=$(allocs_of "$current" "$name")
    if [ -z "$base" ] || [ -z "$cur" ]; then
        echo "bench_compare: allocs_per_op for $name missing from snapshot" >&2
        fail=1
        return
    fi
    awk -v base="$base" -v cur="$cur" -v div="$div" -v tol="$alloc_tolerance" -v label="$label" '
    BEGIN {
        base /= div; cur /= div
        delta = (base > 0) ? (cur - base) / base * 100 : (cur > 0 ? 100 : 0)
        status = (delta > tol) ? "FAIL" : "ok"
        printf "%-42s %14.4g %14.4g %+8.1f%% %s\n", label, base, cur, delta, status
        exit (delta > tol) ? 1 : 0
    }' || fail=1
}

gate "BenchmarkVerifyTrusted/warm" 1 "VerifyTrusted/warm"
gate "BenchmarkFanOutSecure/recipients100" 100 "FanOutSecure per-recipient (N=100)"
gate "BenchmarkParseCold/canonical" 1 "ParseCold fast path"
gate "BenchmarkOpenSlice" 1 "OpenSlice receive"
gate "BenchmarkRelayDrainDurable/recipients100" 100 "RelayDrainDurable per-slice (N=100)"
gate_allocs "BenchmarkVerifyTrusted/warm" 1 "VerifyTrusted/warm allocs"
gate_allocs "BenchmarkFanOutSecure/recipients100" 100 "FanOutSecure per-recipient allocs (N=100)"
gate_allocs "BenchmarkParseCold/canonical" 1 "ParseCold fast path allocs"
gate_allocs "BenchmarkOpenSlice" 1 "OpenSlice receive allocs"
gate_allocs "BenchmarkRelayDrainDurable/recipients100" 100 "RelayDrainDurable per-slice allocs (N=100)"

# Telemetry instrument ceilings: the inline counter/histogram are what
# instrumented hot paths pay PER EVENT, so they are held to absolute
# nanosecond ceilings and exactly zero allocations — from the CURRENT
# snapshot only. No baseline comparison: "free" is an absolute claim,
# and a ceiling (unlike a relative gate) cannot ratchet upward across
# PRs. The ceilings are generous for slow runners; the alloc gate is
# the sharp edge.
telemetry_counter_max="${BENCH_TELEMETRY_COUNTER_MAX_NS:-50}"
telemetry_hist_max="${BENCH_TELEMETRY_HIST_MAX_NS:-150}"
gate_ceiling() {
    local name="$1" max="$2" label="$3" cur curAllocs
    cur=$(ns_of "$current" "$name")
    curAllocs=$(allocs_of "$current" "$name")
    if [ -z "$cur" ] || [ -z "$curAllocs" ]; then
        echo "bench_compare: $name missing from current snapshot" >&2
        fail=1
        return
    fi
    awk -v cur="$cur" -v max="$max" -v allocs="$curAllocs" -v label="$label" '
    BEGIN {
        bad = (cur > max) || (allocs > 0)
        status = bad ? "FAIL" : "ok"
        printf "%-42s %14s %14.4g %8sns %s\n", label, "<=" max "ns/0alloc", cur, allocs "a", status
        exit bad ? 1 : 0
    }' || fail=1
}
gate_ceiling "BenchmarkTelemetryOverhead/counter" "$telemetry_counter_max" "Telemetry counter Inc"
gate_ceiling "BenchmarkTelemetryOverhead/histogram" "$telemetry_hist_max" "Telemetry histogram Observe"

# Trace recorder ceilings, same absolute regime as the telemetry
# instruments. "unsampled" is the price EVERY traced operation pays when
# its trace lost the sampling decision — two clock reads, the seeded
# hash compare and one atomic load, held to exactly zero allocations.
# "sampled" adds the ring write under a shard mutex and must stay
# alloc-free too (spans drop into a preallocated ring). The ring read
# (/debug/traces snapshot of a full 4096-span buffer) allocates by
# design — it builds a sorted copy — so it is held to a wall-clock
# ceiling only.
trace_unsampled_max="${BENCH_TRACE_UNSAMPLED_MAX_NS:-500}"
trace_sampled_max="${BENCH_TRACE_SAMPLED_MAX_NS:-1000}"
trace_read_max="${BENCH_TRACE_READ_MAX_NS:-20000000}"
gate_ceiling "BenchmarkTraceOverhead/unsampled" "$trace_unsampled_max" "Trace span unsampled"
gate_ceiling "BenchmarkTraceOverhead/sampled" "$trace_sampled_max" "Trace span sampled"
gate_ceiling_ns() {
    local name="$1" max="$2" label="$3" cur
    cur=$(ns_of "$current" "$name")
    if [ -z "$cur" ]; then
        echo "bench_compare: $name missing from current snapshot" >&2
        fail=1
        return
    fi
    awk -v cur="$cur" -v max="$max" -v label="$label" '
    BEGIN {
        status = (cur > max) ? "FAIL" : "ok"
        printf "%-42s %14s %14.4g %9s %s\n", label, "<=" max "ns", cur, "", status
        exit (cur > max) ? 1 : 0
    }' || fail=1
}
gate_ceiling_ns "BenchmarkTraceOverhead/read" "$trace_read_max" "Trace ring snapshot (4096 spans)"

# Liveness and idempotency ceilings: what the session-resilience layer
# costs the broker per event. "renew" is the heartbeat's bookkeeping
# (every client pays it at TTL/3 cadence), "idem hit" is a retried
# mutation answered from the dedup window — both absolute ceilings
# with exactly zero allocations, same regime as the telemetry
# instruments: keeping a fleet's sessions alive must not cost GC
# pressure. "idem store" caches one acknowledged response; a map
# insert may grow the map, so it gets a wall-clock ceiling only, the
# same one below the table's cap ("store") and at it ("store-full",
# every store evicting the entry closest to expiry).
lease_renew_max="${BENCH_LEASE_RENEW_MAX_NS:-1000}"
idem_hit_max="${BENCH_IDEM_HIT_MAX_NS:-1000}"
idem_store_max="${BENCH_IDEM_STORE_MAX_NS:-3000}"
gate_ceiling "BenchmarkLivenessOverhead/renew" "$lease_renew_max" "Lease renew (heartbeat bookkeeping)"
gate_ceiling "BenchmarkIdemOverhead/hit" "$idem_hit_max" "Idem dedup hit (retry fast path)"
gate_ceiling_ns "BenchmarkIdemOverhead/store" "$idem_store_max" "Idem dedup store"
gate_ceiling_ns "BenchmarkIdemOverhead/store-full" "$idem_store_max" "Idem dedup store (table full)"

# Replay guard ceiling: one Check on a FULL guard — the state every
# recipient is in under sustained load, each admit evicting the entry
# closest to expiry. A unicast open pays it once and a round open twice,
# beside an RSA unwrap of several hundred microseconds, so it is held
# to an absolute ceiling and exactly zero allocations: a table walk per
# admit (two of them cost ~100 µs here before the guard moved onto
# lru.Window) fails this by a factor of ten or more.
replay_admit_max="${BENCH_REPLAY_ADMIT_MAX_NS:-5000}"
gate_ceiling "BenchmarkReplayGuardAdmit/full" "$replay_admit_max" "Replay guard admit (guard full)"

# Audit journal ceilings: Record on the staged path is what every
# offense, refusal and auth outcome pays inline — one encode into a
# reused stage buffer, one SHA-256 to advance the chain head, one ring
# slot. Held to an absolute ceiling and exactly zero steady-state
# allocations, same regime as the telemetry instruments: attribution
# must not cost GC pressure. The fdatasync-per-append policy is the
# disk's price, not the encoder's — wall-clock ceiling only, sized for
# a slow fsync.
audit_append_max="${BENCH_AUDIT_APPEND_MAX_NS:-5000}"
audit_synced_max="${BENCH_AUDIT_SYNCED_MAX_NS:-20000000}"
gate_ceiling "BenchmarkAuditOverhead/append" "$audit_append_max" "Audit append (staged)"
gate_ceiling_ns "BenchmarkAuditOverhead/synced" "$audit_synced_max" "Audit append (fsync per record)"

# Persistence-tax ratio: durable drain vs in-memory drain, both from the
# CURRENT snapshot (same machine, same run), so this bound is absolute
# and canary-free. A blown ratio means the WAL path grew software
# overhead — syscalls, lock stalls or copies on the drain path.
durable_factor="${BENCH_DURABLE_FACTOR:-2}"
mem_ns=$(ns_of "$current" "BenchmarkRelayDelivery/recipients100")
dur_ns=$(ns_of "$current" "BenchmarkRelayDrainDurable/recipients100")
if [ -z "$mem_ns" ] || [ -z "$dur_ns" ]; then
    echo "bench_compare: relay drain metrics missing from current snapshot" >&2
    fail=1
else
    awk -v mem="$mem_ns" -v dur="$dur_ns" -v factor="$durable_factor" '
    BEGIN {
        ratio = dur / mem
        status = (ratio > factor) ? "FAIL" : "ok"
        printf "%-42s %14.4g %14.4g %7.2fx %s\n", "RelayDrainDurable / RelayDelivery", mem, dur, ratio, status
        exit (ratio > factor) ? 1 : 0
    }' || fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo "bench_compare: REGRESSION — a gated metric regressed (>${tolerance}% ns or >${alloc_tolerance}% allocs) vs $baseline" >&2
    exit 1
fi
echo "bench_compare: within tolerance"
