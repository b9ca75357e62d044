#!/usr/bin/env bash
# Prints the size of the searcher code the way ISSUE/CHANGES/EXPERIMENTS
# quote it: lines of the .rs files under crates/harl/src above each file's
# `#[cfg(test)]`, not counting blank and `//` lines — then the structural
# counts the search-core PRs track (how many times each piece of the tuner
# shell is spelled) and the counts of the yardstick PR. Quote this output,
# never a hand count.
set -euo pipefail
cd "$(dirname "$0")/.."

# non_test FILE...: the files' lines above their first `#[cfg(test` or
# `#[cfg(all(test` (crates/check/src/sync.rs has two test modules, one per
# build)
non_test() {
    for f in "$@"; do
        awk '/^#\[cfg\((all\()?test/{exit} {print}' "$f"
    done
}
# code_lines FILE...: the non-blank, non-`//` ones among them
code_lines() { non_test "$@" | grep -vcE '^\s*(//|$)' || true; }
mapfile -t searchers < <(find crates/harl/src -name '*.rs' | sort)

echo "non-test, non-comment lines in crates/harl/src:" "$(code_lines "${searchers[@]}")"
for pattern in \
    'Tuner for ' \
    'fn tune\(' \
    'impl.* Deref for' \
    'if budget == 0' \
    'usable_records\(' \
    'cannot restore' \
    'struct NetRound' \
    'fn finetune\(' \
    'fn checkpoint_state|fn restore_state'; do
    printf '  %-42s %s\n' "$pattern" "$(non_test "${searchers[@]}" | grep -cE "$pattern" || true)"
done

# the yardstick PR's counts: knobs, bench-only code, committed micro-bench
# numbers, and the two files it shrank
# (environment names only: an identifier a Rust `const`/`static` declares is
# a name of the program, not of its environment)
harl_names() { grep -rhoE "$1"'HARL_[A-Z_]*[A-Z]' crates src examples tests ci | grep -oE 'HARL_.*' | sort -u; }
echo "distinct HARL_* environment names in crates src examples tests ci:" \
    "$(comm -23 <(harl_names '') <(harl_names '(const|static) ') | wc -l)"
echo "*.rs lines under crates/bench/benches and shims/criterion:" \
    "$(find crates/bench/benches shims/criterion -name '*.rs' -exec cat {} + 2>/dev/null | wc -l)"
echo "BENCH_*.json files at the root and under ci/:" \
    "$(find . ci -maxdepth 1 -name 'BENCH_*.json' | wc -l)"
echo "non-test, non-comment lines in crates/par/src/lib.rs:" "$(code_lines crates/par/src/lib.rs)"
# the explorer PR's count: the checker of the real code (the wrappers, the
# schedule explorer) against the wrappers plus the hand-written models of
# the code and the state-cloning checker it replaced
mapfile -t check_src < <(find crates/check/src -name '*.rs' | sort)
echo "non-test, non-comment lines in crates/check/src:" "$(code_lines "${check_src[@]}")"

# the lane PR's count: what the masked tails, the AVX-512 tier and the lane
# exp/ln cost in kernel code (tests and tables are above and beyond it)
echo "non-test, non-comment lines in crates/simd/src:" "$(code_lines crates/simd/src/*.rs)"
echo "all lines in crates/simd/src (tests and tables included):" "$(cat crates/simd/src/*.rs | wc -l)"

# the minibatch PR's count: the replay ring, the fused head block and the
# copy-free backward against the deque, the four head GEMMs and the staged
# transposes they replaced
echo "non-test, non-comment lines in crates/nnet/src:" "$(code_lines crates/nnet/src/*.rs)"

# the config PR's counts: the builder types (a config is a struct, a
# preset or `Default`, struct-update syntax and `validate()`), and the
# seven files that held the eight of them and `MlpConfig`
echo "*ConfigBuilder types in crates src examples tests:" \
    "$(grep -rhoE 'struct \w+ConfigBuilder' crates src examples tests | sort -u | wc -l)"
echo "non-test, non-comment lines in the seven config files:" \
    "$(code_lines crates/tensor-sim/src/measure.rs crates/nnet/src/{mlp,ppo}.rs \
        crates/harl/src/{ansor/tuner,mcts/tuner,mcts/finetune,config}.rs)"

# the crate-graph PR's counts: workspace crates under crates/, and the
# `harl-*` lines under [dependencies] of the root and crates/* manifests
# (the internal edges the build resolves; [dev-dependencies] not counted)
echo "crates under crates/:" "$(find crates -mindepth 2 -maxdepth 2 -name Cargo.toml | wc -l)"
echo "harl-* [dependencies] lines in the root and crates/* manifests:" \
    "$(for m in Cargo.toml crates/*/Cargo.toml; do
        awk '/^\[/ { deps = ($0 == "[dependencies]") } deps && /^harl-/' "$m"
    done | wc -l)"

# the pool PR's counts: the .rs files that still name a pool or a width
# setter (compatibility entries until the benchmark re-baseline), and the
# crates it shrank (crates/par and crates/nnet are printed above)
echo ".rs files in crates src examples tests naming a pool or width setter:" \
    "$(grep -rlE --include='*.rs' 'ParallelismOpts|ThreadPool|set_threads|set_parallelism' \
        crates src examples tests | wc -l)"
echo "non-test, non-comment lines in crates/gbt/src:" "$(code_lines crates/gbt/src/*.rs)"
echo "non-test, non-comment lines in crates/bandit/src:" "$(code_lines crates/bandit/src/*.rs)"
