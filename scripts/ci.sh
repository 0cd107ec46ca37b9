#!/bin/sh
# CI entry point: build, full test suite, then determinism smoke tests
# of the parallel engine, the fault models, the resume journal, and a
# bounded differential-fuzzing pass
# (FUZZ_BUDGET programs, default 200, fixed seeds) with a planted-bug
# detection check.
#
# The smoke campaign runs one workload x one tool x two categories (a
# 2-cell grid) twice — sequentially and with two worker domains — and
# requires the CSV and the per-trial record file to be byte-identical.
# A jobs-scaling smoke then runs a full-grid campaign at --jobs 1/2/4:
# identical CSVs again, plus a wall-clock bound (jobs=4 must not lose
# to jobs=1), rejoin, post-fault-loop and fast-forward work counters
# equal at --jobs 1 and 4, and trace/manifest artifacts
# from the jobs=4 run.
# This is the engine's core guarantee (README "Determinism guarantee")
# exercised end-to-end through the installed CLI, records included.
# The closure tables are held to the tree-walking reference, and the
# snapshot executor to direct from-entry trials, by test_core and
# test_compile.  Finally a journaled
# campaign is interrupted twice and resumed each time: once with the
# journal cut between records, once with it cut inside a record (the
# torn line must be dropped and the next append must not glue onto
# it, so the resumed journal holds the same records as the
# uninterrupted one); and a resume against a mismatched journal header
# must be refused.
set -eu

cd "$(dirname "$0")/.."

echo "== dune build =="
dune build @all

echo "== dune runtest =="
dune runtest

echo "== determinism smoke: 2-cell campaign, --jobs 1 vs --jobs 2 =="
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

smoke() {
    jobs=$1
    dune exec --no-build bin/fi.exe -- diagnose mcf \
        --tool llfi -c load -c cmp -n 40 --seed 7 \
        --jobs "$jobs" \
        --csv "$tmp/cells-$jobs.csv" \
        --records "$tmp/records-$jobs.txt" \
        > "$tmp/report-$jobs.txt"
}

smoke 1
smoke 2

cmp "$tmp/cells-1.csv" "$tmp/cells-2.csv" || {
    echo "FAIL: campaign CSV differs between --jobs 1 and --jobs 2" >&2
    exit 1
}
cmp "$tmp/records-1.txt" "$tmp/records-2.txt" || {
    echo "FAIL: diagnosis records differ between --jobs 1 and --jobs 2" >&2
    exit 1
}
grep -q '^# fi-records v1' "$tmp/records-1.txt" || {
    echo "FAIL: record file missing its format header" >&2
    exit 1
}

echo "OK: CSV and records byte-identical across --jobs values"

echo "== jobs-scaling smoke: --jobs 1/2/4 byte-identical, jobs=4 not slower =="
# A small full-grid campaign at three jobs levels: the CSVs must be
# byte-identical, and the --jobs 4 wall must not exceed --jobs 1 (the
# scheduler caps worker domains at the hardware, so even a 1-core
# runner must not regress; the 1.2 factor absorbs runner noise on a
# seconds-long run).  The --jobs 1 and 4 runs write their run
# manifests (the metrics snapshot) and the --jobs 4 run its Chrome
# trace into SCALE_ARTIFACT_DIR so CI can upload them as debugging
# artifacts.  120 trials per cell records rejoin journals, so the
# manifests must show rejoin hits, and the same hits and steps saved
# on one domain and on four: the counters are deterministic per trial.
# Likewise trials must reach the post-fault loop (vm.ir.suffix_trials +
# vm.x86.suffix_trials nonzero), and the rolling machines must report
# their fast-forward advance (vm.ir/x86.ff_advance_steps), each count the
# same at --jobs 1 and 4: the grid's ten cells outnumber twice the
# domains, so every cell runs as one trial range at both.
scale_out=${SCALE_ARTIFACT_DIR:-$tmp}
mkdir -p "$scale_out"
scale() {
    jobs=$1
    shift
    t0=$(date +%s.%N)
    dune exec --no-build bin/fi.exe -- campaign mcf \
        -n 120 --seed 29 --jobs "$jobs" \
        --csv "$tmp/scale-$jobs.csv" "$@" > /dev/null
    t1=$(date +%s.%N)
    awk -v a="$t0" -v b="$t1" 'BEGIN { printf "%.3f", b - a }'
}
w1=$(scale 1 --manifest "$scale_out/scale-manifest-j1.json")
w2=$(scale 2 --no-manifest)
w4=$(scale 4 --trace "$scale_out/scale-trace-j4.json" \
    --manifest "$scale_out/scale-manifest-j4.json")

cmp "$tmp/scale-1.csv" "$tmp/scale-2.csv" || {
    echo "FAIL: campaign CSV differs between --jobs 1 and --jobs 2" >&2
    exit 1
}
cmp "$tmp/scale-1.csv" "$tmp/scale-4.csv" || {
    echo "FAIL: campaign CSV differs between --jobs 1 and --jobs 4" >&2
    exit 1
}
manifest_metric() {
    sed -n "s/.*\"$2\":\([0-9]*\).*/\1/p" "$1"
}
for m in vm.rejoin.hits vm.rejoin.steps_saved; do
    r1=$(manifest_metric "$scale_out/scale-manifest-j1.json" "$m")
    r4=$(manifest_metric "$scale_out/scale-manifest-j4.json" "$m")
    [ -n "$r1" ] && [ "$r1" != 0 ] || {
        echo "FAIL: $m is '${r1}' at --jobs 1: rejoin never fired" >&2
        exit 1
    }
    [ "$r1" = "$r4" ] || {
        echo "FAIL: $m differs between --jobs 1 ($r1) and --jobs 4 ($r4)" >&2
        exit 1
    }
done
for m in vm.ir.suffix_trials vm.x86.suffix_trials \
    vm.ir.ff_advance_steps vm.x86.ff_advance_steps; do
    r1=$(manifest_metric "$scale_out/scale-manifest-j1.json" "$m")
    r4=$(manifest_metric "$scale_out/scale-manifest-j4.json" "$m")
    [ -n "$r1" ] || {
        echo "FAIL: $m missing from the --jobs 1 manifest" >&2
        exit 1
    }
    [ "$r1" = "$r4" ] || {
        echo "FAIL: $m differs between --jobs 1 ($r1) and --jobs 4 ($r4)" >&2
        exit 1
    }
done
suffix_ir=$(manifest_metric "$scale_out/scale-manifest-j1.json" vm.ir.suffix_trials)
suffix_x86=$(manifest_metric "$scale_out/scale-manifest-j1.json" vm.x86.suffix_trials)
[ $((suffix_ir + suffix_x86)) -gt 0 ] || {
    echo "FAIL: no trial reached the post-fault loop" >&2
    exit 1
}
echo "   rejoin: hits $(manifest_metric "$scale_out/scale-manifest-j1.json" vm.rejoin.hits) at --jobs 1 and 4"
echo "   post-fault loop: ir ${suffix_ir} + x86 ${suffix_x86} trials at --jobs 1 and 4"
echo "   fast-forward advance: ir $(manifest_metric "$scale_out/scale-manifest-j1.json" vm.ir.ff_advance_steps) + x86 $(manifest_metric "$scale_out/scale-manifest-j1.json" vm.x86.ff_advance_steps) steps at --jobs 1 and 4"
echo "   wall: jobs=1 ${w1}s  jobs=2 ${w2}s  jobs=4 ${w4}s"
awk -v a="$w4" -v b="$w1" 'BEGIN { exit !(a <= b * 1.2) }' || {
    echo "FAIL: --jobs 4 wall ${w4}s exceeds --jobs 1 wall ${w1}s * 1.2" >&2
    exit 1
}

echo "OK: jobs scaling byte-identical and --jobs 4 within bounds"

echo "== fault-model smoke: per-model campaigns, --jobs 1 vs --jobs 4 =="
# One tiny campaign per non-default fault model: the determinism
# guarantee must hold on every point of the model axis, so each CSV is
# required byte-identical between one and four worker domains.  The
# CSVs must also carry the model column (only emitted when a cell's
# model is non-default — the default grid stays byte-identical to a
# pre-model-axis campaign, which the earlier smokes already pin).
for model in multi_bit:2 stuck_at_0 stuck_at_1 skip load_value; do
    tag=$(printf '%s' "$model" | tr ':' '-')
    for j in 1 4; do
        dune exec --no-build bin/fi.exe -- campaign mcf \
            --model "$model" -n 40 --seed 19 --jobs "$j" --no-manifest \
            --csv "$tmp/model-$tag-j$j.csv" > /dev/null
    done
    cmp "$tmp/model-$tag-j1.csv" "$tmp/model-$tag-j4.csv" || {
        echo "FAIL: $model campaign CSV differs between --jobs 1 and --jobs 4" >&2
        exit 1
    }
    grep -q ",$model," "$tmp/model-$tag-j1.csv" || {
        echo "FAIL: $model campaign CSV is missing its model column" >&2
        exit 1
    }
done

echo "OK: per-model CSVs byte-identical across --jobs values"

echo "== resume smoke: interrupted journal, then --resume =="
camp() {
    dune exec --no-build bin/fi.exe -- campaign mcf \
        -n 20 --seed 11 --jobs 2 --no-manifest "$@" > /dev/null
}

camp --journal "$tmp/journal-full" --csv "$tmp/camp-full.csv"

# Interrupt: keep the header plus the first three completed cells, as if
# the process had been killed mid-grid, then resume into a fresh CSV.
head -n 4 "$tmp/journal-full" > "$tmp/journal-cut"
camp --journal "$tmp/journal-cut" --resume --csv "$tmp/camp-resumed.csv"

cmp "$tmp/camp-full.csv" "$tmp/camp-resumed.csv" || {
    echo "FAIL: resumed campaign CSV differs from the uninterrupted run" >&2
    exit 1
}

echo "OK: resumed campaign CSV byte-identical to the uninterrupted run"

# Interrupt mid-append: the header, three cells, and the fourth record
# without its last byte and its newline.
head -n 4 "$tmp/journal-full" > "$tmp/journal-torn"
awk 'NR == 5 { printf "%s", substr($0, 1, length($0) - 1) }' \
    "$tmp/journal-full" >> "$tmp/journal-torn"
camp --journal "$tmp/journal-torn" --resume --csv "$tmp/camp-torn.csv"

cmp "$tmp/camp-full.csv" "$tmp/camp-torn.csv" || {
    echo "FAIL: campaign resumed from a torn record differs from the uninterrupted run" >&2
    exit 1
}
sort "$tmp/journal-full" > "$tmp/journal-full.sorted"
sort "$tmp/journal-torn" > "$tmp/journal-torn.sorted"
cmp "$tmp/journal-full.sorted" "$tmp/journal-torn.sorted" || {
    echo "FAIL: journal resumed from a torn record holds other records than the uninterrupted one" >&2
    exit 1
}

echo "OK: torn record dropped; resumed CSV and journal match the uninterrupted run"

echo "== resume smoke: mismatched journal header must be refused =="
if dune exec --no-build bin/fi.exe -- campaign mcf \
    -n 20 --seed 12 --journal "$tmp/journal-cut" --resume \
    > "$tmp/mismatch-out.txt" 2> "$tmp/mismatch-err.txt"; then
    echo "FAIL: --resume accepted a journal from a different campaign" >&2
    exit 1
fi
grep -q "different campaign" "$tmp/mismatch-err.txt" || {
    echo "FAIL: header-mismatch refusal did not explain itself" >&2
    cat "$tmp/mismatch-err.txt" >&2
    exit 1
}

echo "OK: mismatched journal refused with a diagnostic"

echo "== trace smoke: span tree identical across --jobs and across runs =="
# Same seed, --jobs 1 / --jobs 4 / --jobs 4 again: after stripping the
# ts/dur timestamp fields (one trace_event per line, so sed suffices),
# all three Chrome traces must be byte-identical — the span-tree half
# of the determinism guarantee.  The run manifests must agree on the
# campaign CSV digest for the same reason.
trace_run() {
    tag=$1; jobs=$2
    dune exec --no-build bin/fi.exe -- campaign mcf \
        -n 20 --seed 11 --jobs "$jobs" \
        --trace "$tmp/trace-$tag.json" \
        --manifest "$tmp/manifest-$tag.json" \
        > /dev/null 2> /dev/null
    sed -E 's/"ts":[0-9.]+/"ts":_/g; s/"dur":[0-9.]+/"dur":_/g' \
        "$tmp/trace-$tag.json" > "$tmp/trace-$tag.norm"
}
trace_run j1 1
trace_run j4 4
trace_run j4b 4

cmp "$tmp/trace-j1.norm" "$tmp/trace-j4.norm" || {
    echo "FAIL: span tree differs between --jobs 1 and --jobs 4" >&2
    exit 1
}
cmp "$tmp/trace-j4.norm" "$tmp/trace-j4b.norm" || {
    echo "FAIL: span tree differs between two identical --jobs 4 runs" >&2
    exit 1
}

digest_of() {
    sed -n 's/.*"digests":{[^}]*"csv":"\([0-9a-f]*\)".*/\1/p' "$1"
}
d1=$(digest_of "$tmp/manifest-j1.json")
d4=$(digest_of "$tmp/manifest-j4.json")
[ -n "$d1" ] || {
    echo "FAIL: manifest has no csv digest" >&2
    exit 1
}
[ "$d1" = "$d4" ] || {
    echo "FAIL: manifest CSV digest differs between --jobs 1 and --jobs 4" >&2
    exit 1
}

echo "OK: span trees identical modulo timestamps; manifest digests agree"

echo "== telemetry smoke: disabled path changes no output byte =="
# stdout with every telemetry consumer on (notices go to stderr) must
# equal stdout with telemetry off entirely.
dune exec --no-build bin/fi.exe -- campaign mcf -n 20 --seed 11 \
    --no-manifest > "$tmp/plain-stdout.txt" 2> /dev/null
dune exec --no-build bin/fi.exe -- campaign mcf -n 20 --seed 11 \
    --manifest /dev/null --trace /dev/null --metrics \
    > "$tmp/telem-stdout.txt" 2> /dev/null

cmp "$tmp/plain-stdout.txt" "$tmp/telem-stdout.txt" || {
    echo "FAIL: telemetry flags changed campaign stdout" >&2
    exit 1
}

echo "OK: campaign stdout byte-identical with telemetry on and off"

echo "== fuzz smoke: differential oracle on generated programs =="
# FUZZ_BUDGET scales the bounded fuzz pass (default 200 programs);
# fixed seed so failures are reproducible with the printed command.
FUZZ_N=${FUZZ_BUDGET:-200}
dune exec --no-build bin/fi.exe -- fuzz --seed 0 --count "$FUZZ_N" \
    > "$tmp/fuzz-clean.txt" || {
    echo "FAIL: fi fuzz --seed 0 --count $FUZZ_N found a divergence" >&2
    cat "$tmp/fuzz-clean.txt" >&2
    exit 1
}

echo "OK: $FUZZ_N generated programs agree across all pipeline stages"

echo "== fuzz smoke: planted bug must be caught and minimized =="
# A deliberately broken opt stage (first add rewritten to sub): the
# fuzzer must exit nonzero and shrink some finding to <= 20 lines.
if dune exec --no-build bin/fi.exe -- fuzz --mutate add-to-sub \
    --seed 0 --count 120 --max-repros 1 > "$tmp/fuzz-mutate.txt"; then
    echo "FAIL: planted add-to-sub miscompilation not detected" >&2
    exit 1
fi
grep -q 'minimized to' "$tmp/fuzz-mutate.txt" || {
    echo "FAIL: planted-bug finding was not minimized" >&2
    cat "$tmp/fuzz-mutate.txt" >&2
    exit 1
}
lines=$(sed -n 's/.*minimized to \([0-9]*\) lines.*/\1/p' "$tmp/fuzz-mutate.txt" | head -n 1)
[ "$lines" -le 20 ] || {
    echo "FAIL: minimized repro is $lines lines (> 20)" >&2
    exit 1
}

echo "OK: planted bug caught and minimized to $lines lines"

echo "== exhaust smoke: bounded exact cell, --jobs 1 vs --jobs 4 =="
# One bounded exact cell (mcf x LLFI x cmp, residual capped at 300
# faults) plus its Monte-Carlo comparison table: stdout and the exact-
# rate CSV must be byte-identical whatever the worker count — the
# determinism guarantee extended to the exhaustive planner, the
# residual sampler and the weighted tallies.
exhaust_smoke() {
    jobs=$1
    # The two runs write differently-named CSVs, so drop the one line
    # that echoes the output path before comparing stdout.
    dune exec --no-build bin/fi.exe -- exhaust -w mcf \
        -t llfi -c cmp -n 30 --sample-bound 300 --seed 7 \
        --jobs "$jobs" \
        --csv "$tmp/exhaust-$jobs.csv" \
        | grep -v '^Exact results written' > "$tmp/exhaust-$jobs.txt"
}

exhaust_smoke 1
exhaust_smoke 4

cmp "$tmp/exhaust-1.csv" "$tmp/exhaust-4.csv" || {
    echo "FAIL: exact-rate CSV differs between --jobs 1 and --jobs 4" >&2
    exit 1
}
cmp "$tmp/exhaust-1.txt" "$tmp/exhaust-4.txt" || {
    echo "FAIL: exhaust report differs between --jobs 1 and --jobs 4" >&2
    exit 1
}
grep -q 'error_bound' "$tmp/exhaust-1.csv" || {
    echo "FAIL: exact-rate CSV missing its header" >&2
    exit 1
}

echo "OK: exhaust output byte-identical across --jobs values"

echo "== fuzz smoke: coverage report byte-identical across --jobs =="
dune exec --no-build bin/fi.exe -- fuzz --coverage -n 40 -w mcf -w libquantum \
    --jobs 1 > "$tmp/cov-1.txt"
dune exec --no-build bin/fi.exe -- fuzz --coverage -n 40 -w mcf -w libquantum \
    --jobs 2 > "$tmp/cov-2.txt"
cmp "$tmp/cov-1.txt" "$tmp/cov-2.txt" || {
    echo "FAIL: coverage report differs between --jobs 1 and --jobs 2" >&2
    exit 1
}

echo "OK: coverage report byte-identical across --jobs values"

echo "== serve smoke: streamed job byte-identical to offline campaign =="
# Start the service, submit a job over the socket, and require the
# streamed CSV to equal the offline `fi campaign` of the same spec —
# the service's core guarantee, end-to-end through the installed CLI.
dune exec --no-build bin/fi.exe -- serve \
    --socket "$tmp/serve.sock" --pool 2 --journal "$tmp/serve-journal" \
    > "$tmp/serve.log" 2>&1 &
serve_pid=$!
i=0
until grep -q 'listening' "$tmp/serve.log" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -le 100 ] || {
        echo "FAIL: fi serve did not come up" >&2
        cat "$tmp/serve.log" >&2
        exit 1
    }
    sleep 0.1
done

dune exec --no-build bin/fi.exe -- submit mcf \
    --socket "$tmp/serve.sock" -n 20 --seed 11 \
    --csv "$tmp/served.csv" --quiet > /dev/null
dune exec --no-build bin/fi.exe -- campaign mcf \
    -n 20 --seed 11 --no-manifest --csv "$tmp/served-offline.csv" > /dev/null
cmp "$tmp/served.csv" "$tmp/served-offline.csv" || {
    echo "FAIL: served CSV differs from offline campaign" >&2
    exit 1
}

echo "OK: served job CSV byte-identical to offline campaign"

echo "== serve smoke: drain shutdown flushes and stops =="
dune exec --no-build bin/fi.exe -- shutdown --socket "$tmp/serve.sock"
wait "$serve_pid" || {
    echo "FAIL: fi serve exited nonzero after drain" >&2
    cat "$tmp/serve.log" >&2
    exit 1
}
grep -q 'drained' "$tmp/serve.log" || {
    echo "FAIL: fi serve did not report a drained shutdown" >&2
    cat "$tmp/serve.log" >&2
    exit 1
}

echo "OK: drain shutdown clean"

echo "== serve smoke: SIGKILL mid-job, restart resumes to the identical CSV =="
# Small explicit shards so the journal checkpoints early; kill -9 the
# server once some shards are recorded, restart it on the same journal,
# and require the resumed job's server-side CSV to be byte-identical to
# the offline run.  This is the crash-recovery guarantee: only missing
# shards re-run, and determinism makes the merge exact.
dune exec --no-build bin/fi.exe -- serve \
    --socket "$tmp/serve2.sock" --pool 2 --chunk 5 \
    --journal "$tmp/serve2-journal" > "$tmp/serve2.log" 2>&1 &
serve_pid=$!
i=0
until grep -q 'listening' "$tmp/serve2.log" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -le 100 ] || {
        echo "FAIL: fi serve (restartable) did not come up" >&2
        cat "$tmp/serve2.log" >&2
        exit 1
    }
    sleep 0.1
done

dune exec --no-build bin/fi.exe -- submit mcf \
    --socket "$tmp/serve2.sock" -n 60 --seed 13 \
    --out "$tmp/resumed.csv" --quiet > /dev/null 2>&1 &
submit_pid=$!

i=0
while :; do
    n=$(grep -c '^shard ' "$tmp/serve2-journal" 2>/dev/null) || n=0
    [ "$n" -ge 2 ] && break
    i=$((i + 1))
    [ "$i" -le 200 ] || {
        echo "FAIL: no shards checkpointed before the kill window closed" >&2
        exit 1
    }
    sleep 0.05
done
kill -9 "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
kill "$submit_pid" 2>/dev/null || true
wait "$submit_pid" 2>/dev/null || true

dune exec --no-build bin/fi.exe -- serve \
    --socket "$tmp/serve2.sock" --pool 2 --chunk 5 \
    --journal "$tmp/serve2-journal" > "$tmp/serve2b.log" 2>&1 &
serve_pid=$!
i=0
until grep -q '^done 1 ' "$tmp/serve2-journal" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -le 300 ] || {
        echo "FAIL: restarted server never finished the resumed job" >&2
        cat "$tmp/serve2b.log" >&2
        exit 1
    }
    sleep 0.1
done
dune exec --no-build bin/fi.exe -- shutdown --socket "$tmp/serve2.sock"
wait "$serve_pid" || true
grep -q '1 resumed' "$tmp/serve2b.log" || {
    echo "FAIL: restarted server did not report the resumed job" >&2
    cat "$tmp/serve2b.log" >&2
    exit 1
}

dune exec --no-build bin/fi.exe -- campaign mcf \
    -n 60 --seed 13 --no-manifest --csv "$tmp/resumed-offline.csv" > /dev/null
cmp "$tmp/resumed.csv" "$tmp/resumed-offline.csv" || {
    echo "FAIL: resumed CSV differs from the offline campaign" >&2
    exit 1
}

echo "OK: killed-and-restarted job resumed to the byte-identical CSV"
