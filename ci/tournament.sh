#!/usr/bin/env bash
# Stage: five-searcher tournament smoke — every searcher (harl, ansor,
# flextensor, mcts, cd) must finish its budget with a finite best latency
# on every operator class, the coordinate-descent fine-tune phase must
# never regress the search's best, and the MCTS tuner must survive a
# kill/resume bit-identically. The example exits non-zero on a monotone
# or resume violation; this script re-checks the machine-readable rows so
# a silent output-format drift also fails loudly.
set -euo pipefail
cd "$(dirname "$0")/.."

CARGO_FLAGS=${CARGO_FLAGS:---offline}

echo "==> tournament smoke (2 classes x 5 searchers)"
# shellcheck disable=SC2086  # CARGO_FLAGS is a flag list, word-splitting intended
out=$(cargo run $CARGO_FLAGS -q --release --example tournament -- --smoke)
printf '%s\n' "$out"

rows=$(printf '%s\n' "$out" | grep -c '^tournament: class=' || true)
if [ "$rows" -ne 10 ]; then
    echo "FAIL: expected 10 result rows (2 classes x 5 searchers), got $rows"
    exit 1
fi

for searcher in harl ansor flextensor mcts cd; do
    n=$(printf '%s\n' "$out" | grep -c "searcher=$searcher " || true)
    if [ "$n" -ne 2 ]; then
        echo "FAIL: searcher $searcher has $n rows, expected one per class"
        exit 1
    fi
done

# every best latency is finite, and the fine-tuned best never regresses
printf '%s\n' "$out" | sed -n 's/^tournament: .*best_ms=\([^ ]*\) .*finetuned_best_ms=\([^ ]*\) .*/\1 \2/p' |
    while read -r best finetuned; do
        if [ "$best" = "inf" ] || [ "$finetuned" = "inf" ]; then
            echo "FAIL: non-finite best latency in a tournament row"
            exit 1
        fi
        if ! awk -v a="$finetuned" -v b="$best" 'BEGIN { exit !(a <= b) }'; then
            echo "FAIL: finetune regressed $best -> $finetuned"
            exit 1
        fi
    done

printf '%s\n' "$out" | grep -q '^monotone=ok$' || {
    echo "FAIL: tournament did not report monotone=ok"
    exit 1
}
printf '%s\n' "$out" | grep -q '^mcts_resume=bit-identical$' || {
    echo "FAIL: MCTS kill/resume was not bit-identical"
    exit 1
}
echo "tournament OK: 10 finite rows, finetune monotone, mcts resume bit-identical"
