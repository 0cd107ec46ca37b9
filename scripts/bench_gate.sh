#!/bin/sh
# Performance gate: run the gated sections of bench/main.exe and exit
# with its status.
#
# One rule for every wall-clock gate: two arms alternate in one
# process for a few rounds, and the median per-round ratio of their
# costs must meet an absolute bound.  Nothing is compared against a
# committed baseline, so the gate means the same on any host.
#   engine    sequential campaign / scheduler at jobs 2 >= 1.0x
#             (>= 1.5x on 2+ cores); jobs 4 >= 0.75x per usable core
#   diagnose  diagnosis capture on / off <= 1.23x
#   obs       telemetry on / off <= 1.16x
#   serve     cold per-job prepare / warm service >= 3x
#   models    each fault model's step cost / bitflip's <= 1.10x
#
# Claims about work rather than time are exact counts in dune runtest:
# steps skipped by fast-forward (test_core "prefix work pinned") and
# faults settled by pruning (test_exhaust "mcf pruning pinned").
#
# BENCH_TRIALS (default 120) sets the trials per cell of the campaign
# arms: the smallest count at which per-trial work, what the gates
# measure, still outweighs each workload's fixed preparation.
set -eu

cd "$(dirname "$0")/.."

TRIALS=${BENCH_TRIALS:-120}
echo "== bench gates (engine, diagnose, obs, serve, models) at $TRIALS trials =="
BENCH_ONLY=engine,diagnose,obs,serve,models BENCH_TRIALS="$TRIALS" \
    dune exec bench/main.exe
