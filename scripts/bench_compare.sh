#!/bin/sh
# Compare fresh bench summaries against the committed baselines:
#   scripts/bench_compare.sh OUTDIR
# OUTDIR holds the BENCH_*.json files a bench run just wrote (see
# scripts/bench_gate.sh); the baselines are the BENCH_*.json at the
# root of the repository.  Prints one line per gate and exits 1 if any
# gate fails.  scripts/test_bench_gate.sh plants a breach of each gate
# and checks that this script then fails.
set -eu

cd "$(dirname "$0")/.."

[ $# -eq 1 ] || {
    echo "usage: scripts/bench_compare.sh OUTDIR" >&2
    exit 2
}
out=$1

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
