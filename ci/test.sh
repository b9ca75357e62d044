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

echo "==> tree-fit, tanh, exp/ln and minibatch goldens, the candidate path and the two disk fuzzers in a release build"
# tier-1 is a debug build and benchmark/ a release one: the tie order the
# pinned trees depend on, the bits of the activation, the softmax and the
# log-probabilities, and the feature plan's and the folded hash's equality
# with their references (wrapping arithmetic, no overflow checks) must
# hold in both; so must the replay buffer's text and the bits of the
# minibatch path around the pinned update, and a damaged checkpoint or
# records file must be refused by the optimized decoder as by the checked
# one
# shellcheck disable=SC2086
cargo test $CARGO_FLAGS -q --release --test gbt_golden --test tanh_golden --test explog_golden \
    --test candidate_path --test minibatch_golden --test checkpoint_fuzz --test store_fuzz

echo "==> lane tanh, exp and ln against every backend and the host libm, all 2^32 inputs"
# the proof that tanh_inplace, exp_inplace and ln_inplace are the libm
# functions and not approximations of them; three sweeps, one after the
# other, two threads and about 3.5 minutes each. The 1-in-1021 versions of
# the same comparisons ran above in the debug build, overflow checks on
# shellcheck disable=SC2086
cargo test $CARGO_FLAGS -q --release -p harl-simd --lib -- --ignored --nocapture \
    --test-threads 1 exhaustive_sweep

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
# activation, exp and ln bits must hold under them too, and the feature
# plan must equal its reference with the scalar `log2p_int`
# shellcheck disable=SC2086
HARL_SIMD=0 cargo test $CARGO_FLAGS -q --test ppo_golden --test checkpoint_layout \
    --test search_golden --test gbt_golden --test tanh_golden --test explog_golden \
    --test candidate_path --test minibatch_golden --test checkpoint_fuzz

echo "==> PPO, search, tanh and exp/ln goldens with HARL_SIMD=avx2"
# where the best tier is avx512 nothing above dispatched the 256-bit
# kernels outside the backend-matrix unit tests: the pinned update and
# searches must come out of them too (on a host without AVX2 the request
# clamps to the best tier with a warning, and this repeats the run above)
# shellcheck disable=SC2086
HARL_SIMD=avx2 cargo test $CARGO_FLAGS -q --test ppo_golden --test search_golden \
    --test tanh_golden --test explog_golden --test minibatch_golden --test checkpoint_fuzz
