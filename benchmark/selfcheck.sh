#!/usr/bin/env bash
# Runs the timed benchmark N times (default 2) on the same build, each set
# with another seed, and compares the sets: deterministic metrics must be
# identical, and the spread of every other end-to-end metric (quartile
# distance over median, the driver's rule) must stay within its bound.
# Prints the observed spread per metric, so bounds can be set from evidence.
set -euo pipefail
here=$(dirname "$0")
sets=${1:-2}

dirs=()
for i in $(seq 1 "$sets"); do
    out="$here/out/selfcheck-$i"
    rm -rf "$out"
    bash "$here/run.sh" --trace 0 --seed $((0x4a21 + i)) --out "$out"
    dirs+=("$out")
done
exec "${CARGO_TARGET_DIR:-$here/target}/release/harl-benchmark" --compare "${dirs[@]}"
