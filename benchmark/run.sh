#!/usr/bin/env bash
# The one command of the benchmark: builds the crate, then
#   run.sh                         all workloads, timed then traced
#   run.sh --workload W --seed N --seconds S --trace 0|1    one run
# Extra flags (--smoke, --out DIR, --trace with no --workload) pass through;
# see README.md. The last line of a single run is its JSON result.
set -euo pipefail
here=$(dirname "$0")

# fixed settings: no HARL_* knob of the caller's shell reaches the program
for name in $(compgen -e); do
    case $name in HARL_*) unset "$name" ;; esac
done

start=$(date +%s.%N)
cargo build --offline --release --quiet --manifest-path "$here/Cargo.toml"
build_s=$(awk -v a="$start" -v b="$(date +%s.%N)" 'BEGIN { print b - a }')

exec "${CARGO_TARGET_DIR:-$here/target}/release/harl-benchmark" \
    --dir "$here" --build-s "$build_s" "$@"
