#!/usr/bin/env bash
# Stage: the full test suite, plus the determinism suites re-run under the
# forced-scalar backend. Pool widths need no rerun: a width is an argument,
# and the suites pin widths 1, 2, 4 and 7 themselves.
set -euo pipefail
cd "$(dirname "$0")/.."

CARGO_FLAGS=${CARGO_FLAGS:---offline}

echo "==> cargo test -q"
# shellcheck disable=SC2086  # CARGO_FLAGS is a flag list, word-splitting intended
cargo test $CARGO_FLAGS -q --workspace

echo "==> tree-fit and tanh goldens in a release build"
# tier-1 is a debug build and benchmark/ a release one: the tie order the
# pinned trees depend on, and the activation's bits, must hold in both
# shellcheck disable=SC2086
cargo test $CARGO_FLAGS -q --release --test gbt_golden --test tanh_golden

echo "==> lane tanh against every backend and the host tanhf, all 2^32 inputs"
# the proof that tanh_inplace is the libm function and not an approximation
# of it; two threads, about 2.5 minutes. The 1-in-1021 version of the same
# comparison ran above in the debug build, overflow checks on
# shellcheck disable=SC2086
cargo test $CARGO_FLAGS -q --release -p harl-simd --lib -- --ignored --nocapture exhaustive_sweep

echo "==> kernel-dispatch crates with HARL_SIMD=0 (forced-scalar dispatch)"
# the SIMD backends are bit-identical to scalar by construction; rerunning
# the crates that consume them with dispatch forced off proves the scalar
# fallback path stays green on hosts without vector ISAs
# shellcheck disable=SC2086
HARL_SIMD=0 cargo test $CARGO_FLAGS -q -p harl-simd -p harl-nnet -p harl-gbt -p harl-tensor-ir
# the golden PPO update was recorded under vector dispatch: the scalar
# kernels must reproduce its bits, and a checkpoint written under them must
# round-trip, resume and fit its size budget like any other; the five
# searchers' pinned state digests, the pinned tree fits and the pinned
# activation bits must hold under them too
# shellcheck disable=SC2086
HARL_SIMD=0 cargo test $CARGO_FLAGS -q --test ppo_golden --test checkpoint_layout \
    --test search_golden --test gbt_golden --test tanh_golden
