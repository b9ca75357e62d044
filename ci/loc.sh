#!/usr/bin/env bash
# Prints the size of the searcher crates the way ISSUE/CHANGES/EXPERIMENTS
# quote it: lines of crates/{harl,ansor,mcts}/src/*.rs above each file's
# `#[cfg(test)]`, not counting blank and `//` lines — then the structural
# counts the search-core PRs track (how many times each piece of the tuner
# shell is spelled). Quote this output, never a hand count.
set -euo pipefail
cd "$(dirname "$0")/.."

non_test() {
    for f in crates/{harl,ansor,mcts}/src/*.rs; do
        awk '/^#\[cfg\(test\)\]/{exit} {print}' "$f"
    done
}

echo "non-test, non-comment lines in crates/{harl,ansor,mcts}/src:" \
    "$(non_test | grep -vcE '^\s*(//|$)')"
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
    printf '  %-42s %s\n' "$pattern" "$(non_test | grep -cE "$pattern" || true)"
done
