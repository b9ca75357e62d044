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
' crates/harl/src/episode.rs crates/harl/src/search.rs; then
    echo "FAIL: Analyzer::analyze on the candidate path (use Analyzer::verdict)"
    exit 1
fi

echo "==> no staging copy in Linear::backward_batch, no per-step allocation in run_episode"
# the backward reads `gy` through the kernel's strides, and the episode's
# step loop records into the replay ring from buffers it reuses: a
# `transpose_into(` in the first or a `.to_vec()` / `vec![` in the second
# brings back a copy (resp. an allocation per track-step) that PR 23
# removed. Each region runs from its opening line to the first line that
# closes it at the same indentation; `//` comments are skipped.
if awk '
    /^    pub fn backward_batch\(/ { inside = 1 }
    inside && !/^[[:space:]]*\/\// && /transpose_into\(/ { print FILENAME ":" FNR ": " $0; found = 1 }
    inside && /^    }$/ { inside = 0 }
    END { exit !found }
' crates/nnet/src/layers.rs; then
    echo "FAIL: transpose_into( inside Linear::backward_batch (read gy through Strided)"
    exit 1
fi
if ! grep -q '^    while !tracks.is_empty() && step < max_steps {$' crates/harl/src/episode.rs; then
    echo "FAIL: ci/lint.sh no longer finds run_episode's step loop"
    exit 1
fi
if awk '
    /^    while !tracks.is_empty\(\) && step < max_steps \{$/ { inside = 1 }
    inside && !/^[[:space:]]*\/\// && /\.to_vec\(\)|vec!\[/ { print FILENAME ":" FNR ": " $0; found = 1 }
    inside && /^    }$/ { inside = 0 }
    END { exit !found }
' crates/harl/src/episode.rs; then
    echo "FAIL: .to_vec() or vec![ inside run_episode's step loop (reuse the step scratch)"
    exit 1
fi

echo "==> no literal price on the simulated clock"
# every price the simulated search clock charges is an entry of the one
# table beside `Measurer::charge_search_time` (`harl_tensor_sim::PRICES`);
# a number at a call site is a second price list the other searchers do
# not read. Same reading rule: up to the first `#[cfg(test)]`, `//`
# comments skipped.
mapfile -t clock_callers < <(find crates src examples tests -name '*.rs' \
    ! -path crates/tensor-sim/src/measure.rs | sort)
if awk '
    FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[[:space:]]*\/\// { next }
    /charge_search_time\([[:space:]]*[0-9]/ { print FILENAME ":" FNR ": " $0; found = 1 }
    END { exit !found }
' "${clock_callers[@]}"; then
    echo "FAIL: a literal price passed to charge_search_time (add an entry to harl_tensor_sim::PRICES)"
    exit 1
fi

echo "==> no config builder"
# a config is a pub-field struct, a preset or `Default`, struct-update
# syntax and `validate()`, checked by the constructor that consumes it: a
# builder is a second spelling whose check the struct-update sites skip
# (`SessionBuilder` / `TuningSession::builder()` build a session, not a
# config, and do not match)
if grep -rnE 'struct \w+ConfigBuilder|Config::builder\(' crates src examples tests; then
    echo "FAIL: a *ConfigBuilder or Config::builder( (write the struct literal; the constructor validates)"
    exit 1
fi

echo "==> no hand-written concurrency model"
# the schedule explorer runs the shipped JobQueue, RecordStore appends and
# GBT node queue themselves: a state machine that re-states them (a `Model`
# impl, the deleted `harl_check::models`) is a second copy nothing keeps in
# step with the code
if grep -rnE 'impl +Model +for|harl_check::models' crates src examples tests; then
    echo "FAIL: a hand-written concurrency model (check the real code with harl_check::model::check)"
    exit 1
fi

echo "==> no thread pool on the search path"
# every round runs on its caller's thread; the pool's remaining names are
# compatibility entries only the frozen benchmark/ crate calls, until the
# benchmark re-baseline deletes them (ROADMAP item 7)
if grep -rnw --include='*.rs' ThreadPool crates src examples tests | grep -v '^crates/par/'; then
    echo "FAIL: ThreadPool named outside crates/par (a round runs on its caller's thread; its one parallel region is the allowed GBT fit queue)"
    exit 1
fi
if grep -rnE --include='*.rs' '\.(set_parallelism|set_threads|parallelism)\(' crates src examples tests; then
    echo "FAIL: a call to an ignored width setter (only benchmark/ may still call one)"
    exit 1
fi

echo "==> no thread spawn on the search path outside the allowed regions"
# a round runs on its caller's thread: a scoped spawn + join costs about 50 us
# on a 2-core host, more than most maps inside a round take (DESIGN.md §11).
# A parallel region in these crates is deliberate, and named here with its
# reason: one entry per file, `path|reason`. `//` comments are skipped.
SEARCH_CRATES=(harl gbt nnet simd tensor-ir tensor-sim verify)
ALLOWED_SPAWNS=(
    "crates/gbt/src/booster.rs|the fit's node queue: one scoped helper per Gbt::fit of at least 2*QUEUE_MIN_ROWS rows, 6.5-50 ms of work"
    "crates/gbt/src/queue.rs|test-only: a real helper thread that holds a node until the caller has computed it too"
    "crates/harl/src/session.rs|the write-behind checkpoint: one writer per checkpoint, spawned between rounds, so no round waits on the disk"
    "crates/simd/src/lib.rs|test-only exhaustive sweep over all 2^32 inputs, one task per core"
)
spawn_dirs=()
for c in "${SEARCH_CRATES[@]}"; do
    # a stale entry would make the grep below fail to read it, unseen
    if [ ! -d "crates/$c/src" ]; then
        echo "FAIL: ci/lint.sh's SEARCH_CRATES lists $c, but crates/$c/src does not exist"
        exit 1
    fi
    spawn_dirs+=("crates/$c/src")
done
if grep -rnE --include='*.rs' 'thread::(scope|spawn|Builder)' "${spawn_dirs[@]}" |
    grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' |
    grep -vF -f <(printf '%s\n' "${ALLOWED_SPAWNS[@]}" | sed 's/|.*/:/'); then
    echo "FAIL: a thread spawn in a search-path crate outside ci/lint.sh's ALLOWED_SPAWNS (add an entry with its reason, or run it on the caller's thread)"
    exit 1
fi

echo "==> no unused internal dependency"
# a `harl-*` entry under a crate's [dependencies] that none of the crate's
# Rust files names as `harl_*` is a crate edge the build pays for and the
# code does not use ([dev-dependencies] are not read); the root package's
# entries are read against src/ alone
unused=0
for pair in $(for m in crates/*/Cargo.toml; do echo "$m:$(dirname "$m")"; done) Cargo.toml:src; do
    manifest=${pair%%:*}
    crate=${pair#*:}
    for dep in $(awk '/^\[/ { deps = ($0 == "[dependencies]") } deps && /^harl-/ { sub(/[ .=].*/, ""); print }' "$manifest"); do
        if ! grep -rqw --include='*.rs' "${dep//-/_}" "$crate"; then
            echo "$manifest: $dep is never named as ${dep//-/_}"
            unused=1
        fi
    done
done
if [ "$unused" -ne 0 ]; then
    echo "FAIL: an internal dependency no source file uses (drop it from the manifest)"
    exit 1
fi

echo "==> no stale example"
# a command or path naming an example the tree no longer has is a recipe
# that fails when someone follows it: every `--example <name>` and
# `examples/<name>.rs` cited by the CI scripts and workflows, the top-level
# docs, the benchmark's README and sources, and the skill notes must name a
# file under examples/
stale=0
while IFS=: read -r file line name; do
    if [ ! -f "examples/$name.rs" ]; then
        echo "$file:$line: cites examples/$name.rs, which does not exist"
        stale=1
    fi
done < <(grep -rnoE -- '--example +[a-z0-9_]+|examples/[a-z0-9_]+\.rs' \
    ci/*.sh .github/workflows/*.yml README.md DESIGN.md benchmark/README.md \
    benchmark/src .claude/skills/*/SKILL.md |
    sed -E 's/--example +//; s#examples/([a-z0-9_]+)\.rs#\1#')
if [ "$stale" -ne 0 ]; then
    echo "FAIL: a stale example citation (point it at a file under examples/ or at the experiments binary)"
    exit 1
fi

echo "==> no stale binary"
# likewise for binaries: every `--bin NAME` cited by the CI scripts and
# workflows, the top-level docs and the skill notes must name a file under
# src/bin/ (the root package's binaries), and with `-p CRATE` in front a
# `[[bin]]` of that crate's manifest (the crates hold one, `experiments`)
stale=0
while IFS=: read -r file line cite; do
    name=${cite##* }
    crate=$(sed -nE 's/^-p +([a-z0-9-]+) .*/\1/p' <<<"$cite")
    if [ -z "$crate" ] || [ "$crate" = harl-repro ]; then
        [ -f "src/bin/$name.rs" ] && continue
    elif manifest=$(grep -lx "name = \"$crate\"" crates/*/Cargo.toml) &&
        awk -v want="name = \"$name\"" '
            /^\[\[bin\]\]$/ { bin = 1; next }
            /^\[/ { bin = 0 }
            bin && $0 == want { found = 1 }
            END { exit !found }
        ' "$manifest"; then
        continue
    fi
    echo "$file:$line: cites \`$cite\`, which names no binary of the tree"
    stale=1
done < <(grep -rnoE -- '(-p +[a-z0-9-]+ +)?--bin +[a-z0-9_-]+' \
    ci/*.sh .github/workflows/*.yml README.md DESIGN.md .claude/skills/*/SKILL.md)
if [ "$stale" -ne 0 ]; then
    echo "FAIL: a stale binary citation (the binaries are src/bin/*.rs: cargo run --bin NAME)"
    exit 1
fi

echo "==> shellcheck ci/*.sh"
if command -v shellcheck >/dev/null 2>&1; then
    shellcheck ci/*.sh ci/github/*.sh
else
    echo "WARN: shellcheck not installed; skipping shell lint"
fi
