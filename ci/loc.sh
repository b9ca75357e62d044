#!/usr/bin/env bash
# Prints one table of the tree's current size counts, the way
# ISSUE/CHANGES/EXPERIMENTS quote them: the crate graph, the knobs, the
# structural counts of the search shell, and the lines of code of the
# crates that moved. A "non-test, non-comment" count reads each .rs file
# above its first `#[cfg(test)]` and skips blank and `//` lines. Quote this
# output, never a hand count.
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
# rs_in DIR...: the .rs files under the directories, sorted
rs_in() { find "$@" -name '*.rs' | sort; }
row() { printf '%-72s %s\n' "$1" "$2"; }
mapfile -t searchers < <(rs_in crates/harl/src)

# environment names only: an identifier a Rust `const`/`static` declares is
# a name of the program, not of its environment
harl_names() { grep -rhoE "$1"'HARL_[A-Z_]*[A-Z]' crates src examples tests ci | grep -oE 'HARL_.*' | sort -u; }

# the crate graph: workspace crates under crates/, and the `harl-*` lines
# under [dependencies] of the root and crates/* manifests (the internal
# edges the build resolves; [dev-dependencies] not counted)
row "crates under crates/:" "$(find crates -mindepth 2 -maxdepth 2 -name Cargo.toml | wc -l)"
row "harl-* [dependencies] lines in the root and crates/* manifests:" \
    "$(for m in Cargo.toml crates/*/Cargo.toml; do
        awk '/^\[/ { deps = ($0 == "[dependencies]") } deps && /^harl-/' "$m"
    done | wc -l)"
# knobs, and second spellings of a config or a thread width
row "distinct HARL_* environment names in crates src examples tests ci:" \
    "$(comm -23 <(harl_names '') <(harl_names '(const|static) ') | wc -l)"
# a config field is a knob some caller turns: count the `    pub name:`
# lines of every top-level `pub struct …Config|…Params|…Opts {` (a nested
# config is one field of its parent)
mapfile -t crate_src < <(rs_in crates/*/src)
row "pub fields of *Config/*Params/*Opts structs in crates/*/src:" \
    "$(awk '
        FNR == 1 { inside = 0 }
        /^pub struct [A-Za-z0-9_]*(Config|Params|Opts)[<[:space:]].*\{$/ { inside = 1; next }
        inside && /^\}/ { inside = 0 }
        inside && /^    pub [a-z_0-9]+:/ { n++ }
        END { print n + 0 }
    ' "${crate_src[@]}")"
# a pub fn that no program line names is a capability nothing uses. The
# program is crates/*/src, src, examples and benchmark/src, each .rs file
# read above its first `#[cfg(test` (`nextfile`, not `exit`, so one awk
# reads them all) with blank and `//` lines skipped; a `fn NAME` is taken
# out of each line before the names on it are collected, so a definition
# is not its own use
corpus() { awk '/^#\[cfg\((all\()?test/ { nextfile } !/^[[:space:]]*(\/\/|$)/' "$@"; }
mapfile -t program_src < <(rs_in crates/*/src src examples benchmark/src)
row "pub fns in crates/*/src no non-test line of the program names:" \
    "$(comm -23 \
        <(corpus "${crate_src[@]}" | grep -oE '\bpub fn [A-Za-z_0-9]+' | awk '{ print $3 }' | sort -u) \
        <(corpus "${program_src[@]}" | sed -E 's/\bfn [A-Za-z_0-9]+//g' |
            grep -oE '[A-Za-z_][A-Za-z_0-9]*' | sort -u) | wc -l)"
row "*ConfigBuilder types in crates src examples tests:" \
    "$(grep -rhoE 'struct \w+ConfigBuilder' crates src examples tests | sort -u | wc -l)"
# compatibility entries that only the benchmark still calls (ROADMAP item 7)
row ".rs files in crates src examples tests naming a pool or width setter:" \
    "$(grep -rlE --include='*.rs' 'ParallelismOpts|ThreadPool|set_threads|set_parallelism' \
        crates src examples tests | wc -l)"
# bench-only code and committed micro-bench numbers
row "*.rs lines under crates/bench/benches and shims/criterion:" \
    "$(find crates/bench/benches shims/criterion -name '*.rs' -exec cat {} + 2>/dev/null | wc -l)"
row ".rs lines under examples/:" "$(find examples -name '*.rs' -exec cat {} + | wc -l)"
row "BENCH_*.json files at the root and under ci/:" \
    "$(find . ci -maxdepth 1 -name 'BENCH_*.json' | wc -l)"

# the searchers, and how many times each piece of the tuner shell is spelled
# (the last four: the learner's retrain, construction, pipeline hook and
# retrain span, which the shell spells once)
row "non-test, non-comment lines in crates/harl/src:" "$(code_lines "${searchers[@]}")"
for pattern in \
    'Tuner for ' \
    'fn tune\(' \
    'impl.* Deref for' \
    'if budget == 0' \
    'usable_records\(' \
    'cannot restore' \
    'struct NetRound' \
    'fn finetune\(' \
    'fn checkpoint_state|fn restore_state' \
    'update_batch\(' \
    'CostModel::new\(' \
    'fn pipeline\(' \
    'span\("gbt_retrain"\)'; do
    row "  lines matching /$pattern/ in them:" "$(non_test "${searchers[@]}" | grep -cE "$pattern" || true)"
done

# lines of code per crate or module
mapfile -t bandit_src < <(rs_in crates/harl/src/bandit)
row "non-test, non-comment lines in crates/harl/src/bandit:" "$(code_lines "${bandit_src[@]}")"
row "non-test, non-comment lines in crates/par/src/lib.rs:" "$(code_lines crates/par/src/lib.rs)"
mapfile -t check_src < <(rs_in crates/check/src)
row "non-test, non-comment lines in crates/check/src:" "$(code_lines "${check_src[@]}")"
row "non-test, non-comment lines in crates/gbt/src:" "$(code_lines crates/gbt/src/*.rs)"
row "non-test, non-comment lines in crates/nnet/src:" "$(code_lines crates/nnet/src/*.rs)"
row "non-test, non-comment lines in crates/simd/src:" "$(code_lines crates/simd/src/*.rs)"
row "all lines in crates/simd/src (tests and tables included):" "$(cat crates/simd/src/*.rs | wc -l)"
# the files that held the eight *ConfigBuilder types and `MlpConfig`
row "non-test, non-comment lines in the seven config files:" \
    "$(code_lines crates/tensor-sim/src/measure.rs crates/nnet/src/{mlp,ppo}.rs \
        crates/harl/src/{ansor/tuner,mcts/tuner,mcts/finetune,config}.rs)"
# the record store, and the locks and panics of the concurrent crates
mapfile -t store_src < <(rs_in crates/store/src)
row "non-test, non-comment lines in crates/store/src:" "$(code_lines "${store_src[@]}")"
# a CMutex's class is the string literal it is created with, which may sit
# on the line after `CMutex::new(`; harl-check's own fixtures not counted
mapfile -t locking_src < <(rs_in crates/*/src | grep -v '^crates/check/')
row "distinct CMutex classes in non-test crates/*/src outside crates/check:" \
    "$(non_test "${locking_src[@]}" | tr '\n' ' ' |
        grep -oE 'CMutex::new\( *"[^"]+"' | sort -u | wc -l)"
mapfile -t serve_store_src < <(rs_in crates/serve/src crates/store/src)
row "unwrap/expect calls in non-test crates/serve/src and crates/store/src:" \
    "$(non_test "${serve_store_src[@]}" | grep -vE '^\s*//' |
        grep -oE '\.(unwrap|expect)\(' | wc -l)"
