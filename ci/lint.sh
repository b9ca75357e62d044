#!/usr/bin/env bash
# Stage: lints as errors — clippy over every target, shellcheck over the
# CI scripts themselves (skipped with a warning where not installed).
set -euo pipefail
cd "$(dirname "$0")/.."

CARGO_FLAGS=${CARGO_FLAGS:---offline}

echo "==> cargo clippy --workspace -- -D warnings"
# shellcheck disable=SC2086  # CARGO_FLAGS is a flag list, word-splitting intended
cargo clippy $CARGO_FLAGS --workspace --all-targets -- -D warnings

echo "==> no libm-lowered f32 method in non-test crates/nnet code"
# tanh, exp and ln come from harl-simd, bit-equal to the libm the goldens
# were recorded with on every host; a `.exp()` here would tie the search
# bits to the host's libm again. Each file is read up to its first
# `#[cfg(test)]`; `//` comments are skipped.
if awk '
    FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[[:space:]]*\/\// { next }
    /\.(exp|ln|tanh|log2|log10)\(\)|\.powf\(/ { print FILENAME ":" FNR ": " $0; found = 1 }
    END { exit !found }
' crates/nnet/src/*.rs; then
    echo "FAIL: libm-lowered float method in non-test crates/nnet code (use harl_simd)"
    exit 1
fi

echo "==> no message-building lint call on the candidate path"
# `Analyzer::analyze` formats a message per finding; the loops that lint
# every candidate ask for `Analyzer::verdict`, which only counts. Same
# reading rule: up to the first `#[cfg(test)]`, `//` comments skipped.
if awk '
    FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[[:space:]]*\/\// { next }
    /\.analyze\(/ { print FILENAME ":" FNR ": " $0; found = 1 }
    END { exit !found }
' crates/harl/src/episode.rs crates/mcts/src/core.rs; then
    echo "FAIL: Analyzer::analyze on the candidate path (use Analyzer::verdict)"
    exit 1
fi

echo "==> shellcheck ci/*.sh"
if command -v shellcheck >/dev/null 2>&1; then
    shellcheck ci/*.sh ci/github/*.sh
else
    echo "WARN: shellcheck not installed; skipping shell lint"
fi
