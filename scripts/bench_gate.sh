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
# Refresh the baselines after an intentional performance change with:
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

# field FILE KEY -> numeric value of "KEY": N
field() {
    sed -n "s/.*\"$2\": \([0-9.][0-9.]*\).*/\1/p" "$1"
}

fail=0

# gate_min SECTION KEY FACTOR: current >= baseline * FACTOR
gate_min() {
    cur=$(field "$out/BENCH_$1.json" "$2")
    base=$(field "BENCH_$1.json" "$2")
    if awk -v c="$cur" -v b="$base" -v f="$3" 'BEGIN { exit !(c >= b * f) }'
    then
        echo "ok   $1.$2: $cur (baseline $base, floor ${3}x)"
    else
        echo "FAIL $1.$2: $cur regressed below baseline $base * $3" >&2
        fail=1
    fi
}

# gate_abs_min SECTION KEY VALUE: current >= VALUE.  Machine-independent
# hard floor, not a baseline ratio — for invariants that must hold on
# any host.
gate_abs_min() {
    cur=$(field "$out/BENCH_$1.json" "$2")
    if awk -v c="$cur" -v v="$3" 'BEGIN { exit !(c >= v) }'
    then
        echo "ok   $1.$2: $cur (hard floor $3)"
    else
        echo "FAIL $1.$2: $cur below hard floor $3" >&2
        fail=1
    fi
}

# gate_abs_max SECTION KEY VALUE: current <= VALUE.  Machine-independent
# hard ceiling, the dual of gate_abs_min.
gate_abs_max() {
    cur=$(field "$out/BENCH_$1.json" "$2")
    if awk -v c="$cur" -v v="$3" 'BEGIN { exit !(c <= v) }'
    then
        echo "ok   $1.$2: $cur (hard ceiling $3)"
    else
        echo "FAIL $1.$2: $cur above hard ceiling $3" >&2
        fail=1
    fi
}

# gate_max SECTION KEY FACTOR: current <= baseline * FACTOR
gate_max() {
    cur=$(field "$out/BENCH_$1.json" "$2")
    base=$(field "BENCH_$1.json" "$2")
    if awk -v c="$cur" -v b="$base" -v f="$3" 'BEGIN { exit !(c <= b * f) }'
    then
        echo "ok   $1.$2: $cur (baseline $base, ceiling ${3}x)"
    else
        echo "FAIL $1.$2: $cur regressed above baseline $base * $3" >&2
        fail=1
    fi
}

echo "== ratio gates against committed baselines =="
for s in ENGINE DIAGNOSE SNAPSHOT COMPILE EXHAUST OBS SERVE MODELS; do
    [ -f "BENCH_$s.json" ] || {
        echo "FAIL: missing baseline BENCH_$s.json" >&2
        exit 1
    }
done

# Determinism is non-negotiable: the bench re-checks byte-identity and
# records it in the summary.
for s in ENGINE SNAPSHOT COMPILE EXHAUST SERVE MODELS; do
    grep -q '"identical": true' "$out/BENCH_$s.json" || {
        echo "FAIL: $s summary does not attest byte-identical output" >&2
        fail=1
    }
done

gate_min ENGINE speedup 0.8        # engine advantage tracks its baseline

# Engine efficiency floors, independent of the committed baseline.
# Below 1.0x the batching/rejoin/pool machinery costs more than it
# returns — that is a hard failure anywhere.  Per-core efficiency is
# measured at jobs=4 against the cores the host actually has, so it
# demands real scaling on multicore runners without asking a 1-core
# box for the impossible; with >=2 cores, jobs=2 must additionally
# clear 1.5x outright.
cores=$(field "$out/BENCH_ENGINE.json" cores)
gate_abs_min ENGINE speedup 1.0
gate_abs_min ENGINE per_core_eff 0.75
if [ "${cores%.*}" -ge 2 ]; then
    gate_abs_min ENGINE speedup 1.5
fi
# Overhead ratios are the median per-round enabled/off quotient of two
# otherwise identical Engine.Scheduler.run calls (the bench also holds
# them under a hard 1.25 ceiling).
gate_max DIAGNOSE enabled_ratio 1.25   # capture overhead must stay modest
gate_min SNAPSHOT speedup 0.7      # fast-forward must keep its advantage
gate_min COMPILE best_speedup 0.7  # compiled tier tracks its baseline
gate_abs_min COMPILE best_speedup 3.9 # dispatch kernel: hard floor anywhere
gate_min EXHAUST pruning_ratio 0.8 # faults covered per fault executed
gate_max OBS enabled_ratio 1.25        # recording overhead must stay modest
gate_min SERVE warm_speedup 0.5    # warm pool must keep amortizing prepare
                                   # (the hard 3x floor lives in the bench)
gate_abs_max MODELS worst_overhead 1.10  # every fault model within 10% of
                                         # the bitflip baseline, on any host

[ "$fail" = 0 ] || exit 1
echo "OK: all bench ratios within tolerance of the committed baselines"
