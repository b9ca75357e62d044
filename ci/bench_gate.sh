#!/usr/bin/env bash
# The one performance gate: a timed run of every workload of benchmark/
# (about two minutes) must be correct — four `"correct":true` lines,
# `ops_failed=0`, `digest_changed=false` — and hold each workload's
# calibrated `trials_per_s` and `job_turnaround_s` to the 25 % bound
# BENCHMARK.json gives them, against ci/benchmark_gate.json (calibrated
# seconds cancel machine speed, so one baseline serves every box). Best of
# 2: a second run only when the first misses; a metric's better value counts.
#
#   ci/bench_gate.sh            gate this tree
#   ci/bench_gate.sh --record   rewrite the baseline: median of three runs
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE=ci/benchmark_gate.json
WORKLOADS=(op_search net_search baseline_search served_jobs)
OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT
fail() { echo "FAIL: bench gate: $*"; exit 1; }

# run N: one timed run into $OUT/N.txt, checked for correctness
run() {
    bash benchmark/run.sh --trace 0 --out "$OUT/$1" >"$OUT/$1.txt" || fail "benchmark/run.sh exited $?"
    grep -E '^[a-z_]+ (trials_per_s|job_turnaround_s) |^# .* timed ' "$OUT/$1.txt"
    [ "$(grep -c '"correct":true' "$OUT/$1.txt")" -eq ${#WORKLOADS[@]} ] || fail "a result is missing or not correct"
    [ "$(grep -c ' timed .* ops_failed=0 .* digest_changed=false' "$OUT/$1.txt")" -eq ${#WORKLOADS[@]} ] ||
        fail "a workload failed operations or changed its digest"
}
# values WORKLOAD METRIC: that metric of every run so far, ascending
values() { cat "$OUT"/*.txt | awk -v w="$1" -v m="$2" '$1 == w && $2 == m { print $3 }' | sort -g; }
baseline() { sed -n "s/.*\"$1\": {.*\"$2\": \([0-9.eE+-]*\).*/\1/p" "$BASELINE"; }
# outside VALUE OP FACTOR BASE: true when VALUE OP FACTOR * BASE, i.e. past the bound
outside() { [ -n "$4" ] || fail "$BASELINE lacks an entry; run ci/bench_gate.sh --record"; awk "BEGIN { exit !($1 $2 $3 * $4) }"; }

if [ "${1:-}" = "--record" ]; then
    for n in 1 2 3; do run "$n"; done
    for w in "${WORKLOADS[@]}"; do
        echo "  \"$w\": {\"trials_per_s\": $(values "$w" trials_per_s | sed -n 2p)," \
            "\"job_turnaround_s\": $(values "$w" job_turnaround_s | sed -n 2p)}"
    done | sed -e '$!s/$/,/' -e '1s/^/{\n/' -e '$s/$/\n}/' | tee "$BASELINE"
    exit 0
fi

for attempt in 1 2; do
    run "$attempt"
    missed=""
    for w in "${WORKLOADS[@]}"; do
        rate=$(values "$w" trials_per_s | tail -n 1)
        turn=$(values "$w" job_turnaround_s | head -n 1)
        if outside "$rate" "<" 0.75 "$(baseline "$w" trials_per_s)"; then missed+=" $w.trials_per_s=$rate"; fi
        if outside "$turn" ">" 1.25 "$(baseline "$w" job_turnaround_s)"; then missed+=" $w.job_turnaround_s=$turn"; fi
    done
    if [ -z "$missed" ]; then
        echo "bench gate OK: every workload within 25 % of $BASELINE"
        exit 0
    fi
    echo "bench gate attempt $attempt: worse than $BASELINE by more than 25 %:$missed"
done
fail "still outside the bound after two runs"
