#!/bin/sh
# Performance gate: run the gated bench sections (engine, diagnose,
# snapshot, compile, exhaust, obs, serve, models) at a small trial count
# and compare the resulting BENCH_* JSON summaries against the committed
# baselines at the repo root (BENCH_ENGINE.json, BENCH_DIAGNOSE.json,
# BENCH_SNAPSHOT.json, BENCH_COMPILE.json, BENCH_EXHAUST.json, BENCH_OBS.json,
# BENCH_SERVE.json, BENCH_MODELS.json).
#
# Only *ratios* are gated — speedups and overhead ratios are stable
# across machines, wall-clock seconds are not.  Tolerances are generous
# because CI runners are noisy; a real regression (snapshot executor
# losing its advantage, diagnosis hooks leaking into the hot loop,
# engine no longer scaling) moves the ratios far beyond them.  The
# engine additionally carries machine-independent hard floors (see
# gate_abs_min below): whatever the host, running through the engine
# must never be slower than the sequential baseline, and on multicore
# hosts it must actually scale.
#
# The comparison itself lives in scripts/bench_compare.sh, so that
# scripts/test_bench_gate.sh can prove every gate fails on a planted
# breach.  Refresh the baselines after an intentional performance
# change with:
#   scripts/bench_gate.sh --update
set -eu

cd "$(dirname "$0")/.."

update=no
[ "${1:-}" = "--update" ] && update=yes

# --update overwrites committed baselines, so refuse to mix that with
# unrelated uncommitted work: the refreshed BENCH_*.json must land in a
# commit of their own (or of the change that moved them).
if [ "$update" = yes ]; then
    dirty=$(git status --porcelain 2>/dev/null | grep -v ' BENCH_[A-Z]*\.json$' || true)
    if [ -n "$dirty" ]; then
        echo "FAIL: --update needs a clean working tree (only BENCH_*.json may differ):" >&2
        echo "$dirty" >&2
        exit 1
    fi
fi

# 120 trials is the smallest count where per-trial work (what the gates
# measure) still dominates the fixed prepare/profile cost per workload.
TRIALS=${BENCH_TRIALS:-120}
JOBS=${BENCH_JOBS:-2}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

# Fresh summaries land in BENCH_JSON_DIR when the caller sets one (CI
# uploads them as artifacts); otherwise in the throwaway tempdir.
out=${BENCH_JSON_DIR:-$tmp}
mkdir -p "$out"

echo "== bench (engine,diagnose,snapshot,compile,exhaust,obs,serve,models) at $TRIALS trials, $JOBS jobs =="
BENCH_ONLY=engine,diagnose,snapshot,compile,exhaust,obs,serve,models BENCH_TRIALS="$TRIALS" \
    BENCH_JOBS="$JOBS" BENCH_JSON_DIR="$out" \
    dune exec bench/main.exe > "$tmp/bench.log" 2>&1 || {
    # The bench gates itself (determinism + hard ratio floors) and
    # exits non-zero on failure; surface its report.
    tail -n 40 "$tmp/bench.log" >&2
    echo "FAIL: bench run failed its internal gates" >&2
    exit 1
}
grep '^BENCH_' "$tmp/bench.log"

if [ "$update" = yes ]; then
    for s in ENGINE DIAGNOSE SNAPSHOT COMPILE EXHAUST OBS SERVE MODELS; do
        cp "$out/BENCH_$s.json" "BENCH_$s.json"
    done
    echo "Baselines refreshed; commit the BENCH_*.json files."
    exit 0
fi

sh scripts/bench_compare.sh "$out"
