#!/bin/sh
# Self-test of the perf gates: a gate that cannot fail is a bug.
#
# Runs scripts/bench_compare.sh on copies of the committed BENCH_*.json
# baselines (must pass), then plants one breach at a time in a fresh
# copy and requires the comparison to exit 1 naming the breached key:
# every gated key pushed past its bound, the multicore engine floor
# armed by a 2-core host whose engine barely beats sequential, and
# each byte-identity attestation flipped to false.  Needs no bench run.
set -eu

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

fresh() {
    rm -rf "$tmp/out"
    mkdir "$tmp/out"
    cp BENCH_*.json "$tmp/out/"
}

# set SECTION KEY VALUE: overwrite one numeric field of the copy.
set_field() {
    f="$tmp/out/BENCH_$1.json"
    grep -q "\"$2\": [0-9.]" "$f" || {
        echo "FAIL: BENCH_$1.json has no numeric \"$2\" to plant into" >&2
        exit 1
    }
    sed "s/\"$2\": [0-9.][0-9.]*/\"$2\": $3/" "$f" > "$f.new"
    mv "$f.new" "$f"
}

# expect_fail WHAT PATTERN: the comparison must exit 1 and its report
# must mention PATTERN.
expect_fail() {
    if sh scripts/bench_compare.sh "$tmp/out" > "$tmp/log" 2>&1; then
        echo "FAIL: $1 passed the gate" >&2
        cat "$tmp/log" >&2
        exit 1
    else
        rc=$?
        [ "$rc" -eq 1 ] || {
            echo "FAIL: $1 exited $rc, expected 1" >&2
            cat "$tmp/log" >&2
            exit 1
        }
    fi
    grep -q "$2" "$tmp/log" || {
        echo "FAIL: $1 failed without naming $2" >&2
        cat "$tmp/log" >&2
        exit 1
    }
    echo "ok   $1 fails the gate"
}

fresh
sh scripts/bench_compare.sh "$tmp/out" > "$tmp/log" 2>&1 || {
    echo "FAIL: the committed baselines do not pass their own gate" >&2
    cat "$tmp/log" >&2
    exit 1
}
echo "ok   committed baselines pass"

# Floors get 0, ceilings a value far above any bound.
for breach in \
    "ENGINE speedup 0" \
    "ENGINE per_core_eff 0" \
    "DIAGNOSE enabled_ratio 1000" \
    "SNAPSHOT speedup 0" \
    "COMPILE best_speedup 0" \
    "EXHAUST pruning_ratio 0" \
    "OBS enabled_ratio 1000" \
    "SERVE warm_speedup 0" \
    "MODELS worst_overhead 1000"
do
    set -- $breach
    fresh
    set_field "$1" "$2" "$3"
    expect_fail "$1.$2 = $3" "FAIL $1.$2"
done

# The multicore floor only arms on hosts with >= 2 cores.
fresh
set_field ENGINE cores 2
set_field ENGINE speedup 1.2
set_field ENGINE per_core_eff 1.2
expect_fail "ENGINE.speedup = 1.2 on 2 cores" "below hard floor 1.5"

for s in ENGINE SNAPSHOT COMPILE EXHAUST SERVE MODELS; do
    fresh
    sed 's/"identical": true/"identical": false/' "$tmp/out/BENCH_$s.json" \
        > "$tmp/out/x" && mv "$tmp/out/x" "$tmp/out/BENCH_$s.json"
    expect_fail "$s identical = false" "$s summary does not attest"
done

echo "OK: every bench gate fails on its planted breach"
