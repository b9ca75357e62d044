#!/usr/bin/env bash
# Repo-wide quality gate, staged:
#
#   ci/check.sh                  run every stage (fmt -> lint -> test -> smoke -> tournament -> analyze)
#   ci/check.sh --stage lint     run one stage
#
#   fmt         cargo fmt --check
#   lint        clippy -D warnings + shellcheck
#   test        workspace tests, release goldens, tanh/exp/ln sweeps, HARL_SIMD=0 and =avx2 passes
#   smoke       benchmark gate (ci/bench_gate.sh), benchmark/run.sh --smoke +
#               benchmark tests, lint-schedules, traced quickstart, serve
#               (bench-load included) + federation runs
#   tournament  five-searcher tournament self-checks
#   analyze     --cfg harl_check tests and schedule explorations (+ miri/TSan if present)
#
# Stages live in their own scripts (ci/fmt.sh, ci/lint.sh, ci/test.sh,
# ci/smoke.sh, ci/tournament.sh, ci/analyze.sh) so CI systems can run them
# as separate fail-fast jobs; this orchestrator adds per-stage timing lines
# and a summary table, exiting non-zero when any stage failed. Pass
# --offline (the default when the registry is unreachable) through
# CARGO_FLAGS if needed.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    echo "usage: ci/check.sh [--stage fmt|lint|test|smoke|tournament|analyze|all]" >&2
    exit 2
}

STAGE=all
if [ "${1:-}" = "--stage" ]; then
    [ $# -ge 2 ] || usage
    STAGE=$2
elif [ $# -ge 1 ]; then
    usage
fi

case "$STAGE" in
fmt | lint | test | smoke | tournament | analyze) STAGES=("$STAGE") ;;
all) STAGES=(fmt lint test smoke tournament analyze) ;;
*) usage ;;
esac

RESULTS=()
failed=0

# Every completed stage keeps its real exit code in the summary, and an
# interrupt (Ctrl-C on a long local run) still prints the partial table so
# the stages that did finish are not lost.
summary() {
    echo
    echo "stage summary:"
    for r in "${RESULTS[@]+"${RESULTS[@]}"}"; do
        read -r name status elapsed <<<"$r"
        printf '  %-10s %-8s %4ss\n' "$name" "$status" "$elapsed"
    done
}
on_interrupt() {
    trap - INT TERM
    echo
    echo "interrupted"
    summary
    exit 130
}
trap on_interrupt INT TERM

for s in "${STAGES[@]}"; do
    echo "=== stage $s ==="
    start=$(date +%s)
    rc=0
    "ci/$s.sh" || rc=$?
    if [ "$rc" -eq 0 ]; then
        status=ok
    else
        status="FAIL($rc)"
        failed=1
    fi
    elapsed=$(($(date +%s) - start))
    echo "=== stage $s: $status (${elapsed}s) ==="
    RESULTS+=("$s $status $elapsed")
done

summary
if [ "$failed" -ne 0 ]; then
    echo "FAIL: one or more stages failed"
    exit 1
fi
echo "OK: all stages passed"
