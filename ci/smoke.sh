#!/usr/bin/env bash
# Stage: end-to-end smoke runs — a warning-free build of the frozen
# benchmark, the benchmark gate (ci/bench_gate.sh), the
# end-to-end benchmark's smoke mode and its own tests, schedule lints, traced
# quickstart (trace parseable, >=95% coverage), warm-start via the record
# store, and the serve daemon (warm-start across jobs, kill -9 resume).
#
# All scratch state lives under one SMOKE_TMP with a single cleanup trap;
# earlier revisions registered a second `trap ... EXIT` for the serve
# section which silently shadowed the store cleanup.
set -euo pipefail
cd "$(dirname "$0")/.."

CARGO_FLAGS=${CARGO_FLAGS:---offline}
# shellcheck disable=SC2086  # CARGO_FLAGS is a flag list, word-splitting intended

SMOKE_TMP=$(mktemp -d)
SERVE_PID=""
FED_A_PID=""
FED_B_PID=""
cleanup() {
    rm -rf "$SMOKE_TMP"
    for pid in "$SERVE_PID" "$FED_A_PID" "$FED_B_PID"; do
        if [ -n "$pid" ]; then kill "$pid" 2>/dev/null || true; fi
    done
}
trap cleanup EXIT

echo "==> the frozen benchmark builds without a warning"
# benchmark/ pins calls into the program's public API and is not edited
# between the PRs that may edit it: a program change that makes one of
# those calls warn (a new #[must_use] return dropped, a deprecation) would
# otherwise pass unseen. Cargo replays the warnings of cached crates, so
# this holds on a warm target directory too.
# shellcheck disable=SC2086
if ! bench_build=$(cargo build $CARGO_FLAGS --release --manifest-path benchmark/Cargo.toml 2>&1); then
    printf '%s\n' "$bench_build"
    echo "FAIL: benchmark/ does not build"
    exit 1
fi
if printf '%s\n' "$bench_build" | grep -q 'warning:'; then
    printf '%s\n' "$bench_build"
    echo "FAIL: building benchmark/ printed a warning"
    exit 1
fi
echo "benchmark build OK: no warning"

echo "==> benchmark gate (benchmark/run.sh --trace 0 against ci/benchmark_gate.json)"
ci/bench_gate.sh

echo "==> end-to-end benchmark smoke (benchmark/run.sh --smoke, all four workloads)"
# a failed result check exits 1 (and `set -e` stops here); the count guards
# against a run that printed no result line at all
bench_out=$(bash benchmark/run.sh --smoke --out "$SMOKE_TMP/benchmark")
bench_ok=$(printf '%s\n' "$bench_out" | grep -c '"correct":true' || true)
if [ "$bench_ok" -eq 0 ] || printf '%s\n' "$bench_out" | grep -q '"correct":false'; then
    printf '%s\n' "$bench_out" | tail -n 20
    echo "FAIL: benchmark smoke did not report \"correct\":true on every result line"
    exit 1
fi
echo "benchmark smoke OK: $bench_ok result lines, all correct"
# shellcheck disable=SC2086
cargo test $CARGO_FLAGS --release -q --manifest-path benchmark/Cargo.toml
# benchmark/ is frozen between the PRs that may edit it, and it resolves its
# own lock file from the workspace's manifests: a manifest edit that gives
# it a crate or an edge it did not have makes the builds above add lines
# to benchmark/Cargo.lock. A rewrite that only removes lines drops crates
# and edges the workspace deleted since the lock was recorded; it is
# restored, and the next PR that may edit benchmark/ commits it.
added=$(git diff --numstat -- benchmark/Cargo.lock | awk '{ print $1 }')
if [ "${added:-0}" -gt 0 ]; then
    git diff -- benchmark/Cargo.lock
    echo "FAIL: building benchmark/ added to benchmark/Cargo.lock — a manifest edit" \
        "reached the frozen benchmark; undo it or land it with a benchmark re-baseline"
    exit 1
fi
if ! git diff --quiet -- benchmark/Cargo.lock; then
    echo "WARN: benchmark/Cargo.lock still lists crates or edges the workspace dropped; restored"
    git checkout -- benchmark/Cargo.lock
fi

echo "==> lint-schedules smoke run"
# shellcheck disable=SC2086
cargo run $CARGO_FLAGS -q --bin lint-schedules -- 40

echo "==> record-store warm-start smoke (quickstart x2, shared store)"
STORE_DIR="$SMOKE_TMP/store"
TRACE_FILE="$SMOKE_TMP/trace.jsonl"
# the cold run doubles as the tracing smoke: HARL_TRACE=1 through the env
# path, summarized below
# shellcheck disable=SC2086
out1=$(HARL_TRACE=1 HARL_TRACE_FILE="$TRACE_FILE" \
    cargo run $CARGO_FLAGS -q --release --example quickstart -- --store "$STORE_DIR")
best1=$(printf '%s\n' "$out1" | sed -n 's/^metrics: best_ms=\([0-9.]*\).*/\1/p')
cold_tt=$(printf '%s\n' "$out1" | sed -n 's/.*trials_to_best=\(-\{0,1\}[0-9]*\).*/\1/p')
# shellcheck disable=SC2086
out2=$(cargo run $CARGO_FLAGS -q --release --example quickstart -- \
    --store "$STORE_DIR" --target-ms "$best1")
warm_records=$(printf '%s\n' "$out2" | sed -n 's/.*warm_records=\([0-9]*\).*/\1/p')
warm_tt=$(printf '%s\n' "$out2" | sed -n 's/.*trials_to_target=\(-\{0,1\}[0-9]*\).*/\1/p')
if [ -z "$warm_records" ] || [ "$warm_records" -le 0 ]; then
    echo "FAIL: second quickstart run did not warm-start from the store"
    exit 1
fi
if [ -z "$warm_tt" ] || [ "$warm_tt" -le 0 ] || [ "$warm_tt" -ge "$cold_tt" ]; then
    echo "FAIL: warm run not faster to the cold best: warm=$warm_tt cold=$cold_tt"
    exit 1
fi
echo "warm-start OK: cold best in $cold_tt trials, warm run matched it in $warm_tt (replayed $warm_records records)"

echo "==> trace summary (harl-trace, coverage >= 95%)"
if [ ! -s "$TRACE_FILE" ]; then
    echo "FAIL: HARL_TRACE=1 quickstart wrote no trace"
    exit 1
fi
# shellcheck disable=SC2086
cargo run $CARGO_FLAGS -q --bin harl-trace -- "$TRACE_FILE" --min-coverage 95

echo "==> serve smoke (daemon + CLI: warm-start across jobs, kill -9 resume)"
# shellcheck disable=SC2086
cargo build $CARGO_FLAGS -q --release --bin harl-serve --bin harl-cli
SERVE_BIN=target/release/harl-serve
CLI_BIN=target/release/harl-cli
SERVE_ROOT="$SMOKE_TMP/serve"
mkdir -p "$SERVE_ROOT"

# starts the daemon on SERVE_ROOT and resolves ADDR once it answers `list`
start_daemon() {
    rm -f "$SERVE_ROOT/serve.addr"
    "$SERVE_BIN" --root "$SERVE_ROOT" --workers 1 &
    SERVE_PID=$!
    for _ in $(seq 100); do
        if [ -s "$SERVE_ROOT/serve.addr" ]; then
            ADDR=$(cat "$SERVE_ROOT/serve.addr")
            if "$CLI_BIN" --addr "$ADDR" list >/dev/null 2>&1; then return 0; fi
        fi
        sleep 0.1
    done
    echo "FAIL: daemon did not come up"
    return 1
}

start_daemon
# job 1 (cold) then job 2 (same workload): job 2 must warm-start off the
# pool and reach job 1's best in fewer trials than job 1 needed
job1=$("$CLI_BIN" --addr "$ADDR" submit gemm:1024x1024x1024 --preset fast --trials 160 --watch)
best1=$(printf '%s\n' "$job1" | sed -n 's/^metrics: best_ms=\([0-9.]*\).*/\1/p')
cold_tt=$(printf '%s\n' "$job1" | sed -n 's/.*trials_to_best=\(-\{0,1\}[0-9]*\).*/\1/p')
job2=$("$CLI_BIN" --addr "$ADDR" submit gemm:1024x1024x1024 --preset fast --trials 160 \
    --target-ms "$best1" --watch)
serve_warm=$(printf '%s\n' "$job2" | sed -n 's/.*warm_records=\([0-9]*\).*/\1/p')
serve_tt=$(printf '%s\n' "$job2" | sed -n 's/.*trials_to_target=\(-\{0,1\}[0-9]*\).*/\1/p')
if [ -z "$serve_warm" ] || [ "$serve_warm" -le 0 ]; then
    echo "FAIL: job 2 did not warm-start from job 1's records (warm_records=$serve_warm)"
    exit 1
fi
if [ -z "$serve_tt" ] || [ "$serve_tt" -le 0 ] || [ "$serve_tt" -ge "$cold_tt" ]; then
    echo "FAIL: warm job not faster to job 1's best: warm=$serve_tt cold=$cold_tt"
    exit 1
fi

# live metrics: the daemon's registry must expose the job lifecycle,
# request latencies, and the scored-candidate count
metrics=$("$CLI_BIN" --addr "$ADDR" metrics)
for needle in \
    'harl_serve_jobs_total{state="submitted"}' \
    'harl_serve_jobs_total{state="completed"}' \
    'harl_serve_requests_total{verb="submit"}' \
    'harl_serve_request_seconds_count' \
    'harl_scoring_candidates_total'; do
    if ! printf '%s\n' "$metrics" | grep -qF "$needle"; then
        echo "FAIL: metrics dump is missing $needle"
        exit 1
    fi
done

"$CLI_BIN" --addr "$ADDR" shutdown
wait "$SERVE_PID"
SERVE_PID=""
echo "serve warm-start OK: job1 best in $cold_tt trials, job2 matched it in $serve_tt (replayed $serve_warm records)"

# restart resilience: kill -9 the daemon mid-job, restart on the same
# root, and the job must be requeued and resume from its checkpoint
start_daemon
job3=$("$CLI_BIN" --addr "$ADDR" submit gemm:512x512x512 --preset tiny --trials 100000 \
    | sed -n 's/^submitted \(.*\)/\1/p')
rounds=0
for _ in $(seq 200); do
    rounds=$("$CLI_BIN" --addr "$ADDR" status "$job3" | sed -n 's/.*rounds=\([0-9]*\) .*/\1/p')
    if [ -n "$rounds" ] && [ "$rounds" -ge 1 ]; then break; fi
    sleep 0.1
done
if [ -z "$rounds" ] || [ "$rounds" -lt 1 ]; then
    echo "FAIL: job $job3 made no progress before the kill"
    exit 1
fi
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
if [ ! -f "$SERVE_ROOT/jobs/$job3/store/checkpoint.json" ]; then
    echo "FAIL: killed job left no checkpoint"
    exit 1
fi
# the survivor carries the current layout's version stamp, read from the
# constant so a layout change cannot leave this check behind
ckpt_version=$(sed -nE 's/^pub const CHECKPOINT_VERSION: u32 = ([0-9]+);$/\1/p' \
    crates/harl/src/session.rs)
ckpt_want="{\"version\":$ckpt_version,"
ckpt_head=$(head -c "${#ckpt_want}" "$SERVE_ROOT/jobs/$job3/store/checkpoint.json")
if [ -z "$ckpt_version" ] || [ "$ckpt_head" != "$ckpt_want" ]; then
    echo "FAIL: surviving checkpoint begins '$ckpt_head', expected '$ckpt_want'"
    exit 1
fi

start_daemon
resumed=0
for _ in $(seq 200); do
    resumed=$("$CLI_BIN" --addr "$ADDR" status "$job3" | grep -c ' resumed' || true)
    if [ "$resumed" -ge 1 ]; then break; fi
    sleep 0.1
done
if [ "$resumed" -lt 1 ]; then
    echo "FAIL: job did not resume after daemon kill -9 + restart"
    exit 1
fi
"$CLI_BIN" --addr "$ADDR" cancel "$job3"
"$CLI_BIN" --addr "$ADDR" shutdown
wait "$SERVE_PID"
SERVE_PID=""
echo "serve restart OK: job $job3 resumed from its checkpoint after kill -9"

echo "==> serve bench-load smoke (four concurrent clients, no request may fail)"
start_daemon
"$CLI_BIN" --addr "$ADDR" bench-load --clients 4 --requests 80 --smoke \
    --out "$SMOKE_TMP/bench_load.json"
"$CLI_BIN" --addr "$ADDR" shutdown
wait "$SERVE_PID"
SERVE_PID=""
if ! grep -q '"errors": 0,' "$SMOKE_TMP/bench_load.json"; then
    cat "$SMOKE_TMP/bench_load.json"
    echo "FAIL: bench-load saw request errors"
    exit 1
fi

echo "==> federation smoke (two daemons, one logical pool)"
FED_A="$SMOKE_TMP/fed-a"
FED_B="$SMOKE_TMP/fed-b"
mkdir -p "$FED_A" "$FED_B"

# boots one federated daemon; args: root, pid-var name, extra flags...
start_fed() {
    local froot=$1 pidvar=$2
    shift 2
    "$SERVE_BIN" --root "$froot" --workers 1 "$@" &
    printf -v "$pidvar" '%s' "$!"
    local faddr
    for _ in $(seq 100); do
        if [ -s "$froot/serve.addr" ]; then
            faddr=$(cat "$froot/serve.addr")
            if "$CLI_BIN" --addr "$faddr" list >/dev/null 2>&1; then
                FED_ADDR=$faddr
                return 0
            fi
        fi
        sleep 0.1
    done
    echo "FAIL: federated daemon on $froot did not come up"
    return 1
}

start_fed "$FED_A" FED_A_PID
ADDR_A=$FED_ADDR
start_fed "$FED_B" FED_B_PID --peer "$ADDR_A" --sync-ms 100
ADDR_B=$FED_ADDR

# tune on A, then wait until B's puller has merged A's records
"$CLI_BIN" --addr "$ADDR_A" submit gemm:256x256x256 --preset tiny --trials 48 --watch >/dev/null
merged=0
for _ in $(seq 200); do
    merged=$("$CLI_BIN" --addr "$ADDR_B" metrics \
        | sed -n 's/^harl_serve_pool_sync_records_total{event="merged"} \([0-9]*\)$/\1/p')
    if [ -n "$merged" ] && [ "$merged" -gt 0 ]; then break; fi
    sleep 0.1
done
if [ -z "$merged" ] || [ "$merged" -le 0 ]; then
    echo "FAIL: daemon B never merged records from peer A"
    exit 1
fi

# a similar job on B must warm-start from A's history
fed_job=$("$CLI_BIN" --addr "$ADDR_B" submit gemm:256x256x256 --preset tiny --trials 48 --watch)
fed_warm=$(printf '%s\n' "$fed_job" | sed -n 's/.*warm_records=\([0-9]*\).*/\1/p')
if [ -z "$fed_warm" ] || [ "$fed_warm" -le 0 ]; then
    echo "FAIL: job on B did not warm-start from A's synced records (warm_records=$fed_warm)"
    exit 1
fi
"$CLI_BIN" --addr "$ADDR_B" shutdown
wait "$FED_B_PID"
FED_B_PID=""
"$CLI_BIN" --addr "$ADDR_A" shutdown
wait "$FED_A_PID"
FED_A_PID=""
echo "federation OK: daemon B merged $merged records from A; similar job on B replayed $fed_warm"
