#!/usr/bin/env bash
# Stage: concurrency analysis, in two escalating tiers.
#
#   1. Checked build    — the test suites of the crates that use the
#      harl-check wrappers, rebuilt under `--cfg harl_check`: every
#      CMutex/CCondvar/CAtomic records lock order and fails fast on
#      C001/C002/C004, and the schedule explorer (harl_check::model) runs
#      the real JobQueue (crates/serve/tests/queue_explore.rs), store
#      append order (two appenders through one RecordStore leave memory in
#      the file's order: crates/store, `explore`) and the GBT fit's node queue
#      (crates/gbt, `queue::tests::explore`) through every schedule up to
#      two preemptions, plus harl-check's own fixtures that prove it still
#      catches a lost update, a missing recheck, a remove-then-create steal
#      and a missing notify. Always runs; uses its own target dir to keep
#      the main cache warm.
#   2. Sanitizers       — miri and ThreadSanitizer need a nightly toolchain
#      with the right components; where unavailable they are skipped with
#      a warning rather than failing, so the stage is useful offline too.
set -euo pipefail
cd "$(dirname "$0")/.."

CARGO_FLAGS=${CARGO_FLAGS:---offline}
# The crates that use the harl-check wrappers, and harl-check itself.
CHECKED_CRATES=(-p harl-check -p harl-gbt -p harl-store -p harl-serve)

echo "==> checked build: instrumented tests and schedule explorations (--cfg harl_check)"
# shellcheck disable=SC2086  # CARGO_FLAGS is a flag list, word-splitting intended
RUSTFLAGS="${RUSTFLAGS:-} --cfg harl_check" \
    CARGO_TARGET_DIR=target/check \
    cargo test $CARGO_FLAGS -q "${CHECKED_CRATES[@]}"

echo "==> miri (undefined behaviour / data races, interpreted)"
if cargo +nightly miri --version >/dev/null 2>&1; then
    # Interpreted execution is slow: restrict to the sync layer, whose unit
    # tests are the concurrency-critical surface of a normal build.
    # shellcheck disable=SC2086
    cargo +nightly miri test $CARGO_FLAGS -q -p harl-check
else
    echo "WARN: cargo +nightly miri unavailable; skipping miri tier"
fi

echo "==> ThreadSanitizer (instrumented native races)"
if rustc +nightly --print target-libdir >/dev/null 2>&1 &&
    cargo +nightly -Z help >/dev/null 2>&1; then
    host=$(rustc +nightly -vV | sed -n 's/^host: //p')
    # TSan needs -Zbuild-std to instrument libstd; without the rust-src
    # component (or network) that build fails, so probe and skip cleanly.
    # shellcheck disable=SC2086
    if RUSTFLAGS="${RUSTFLAGS:-} -Zsanitizer=thread" \
        CARGO_TARGET_DIR=target/tsan \
        cargo +nightly test $CARGO_FLAGS -q -Zbuild-std \
        --target "$host" -p harl-serve --test queue_stress 2>/dev/null; then
        echo "TSan: queue_stress clean"
    else
        echo "WARN: TSan build unavailable (needs nightly rust-src); skipping"
    fi
else
    echo "WARN: nightly toolchain unavailable; skipping TSan tier"
fi

echo "OK: analyze stage passed"
