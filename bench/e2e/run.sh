#!/usr/bin/env bash
# Runs one workload of the end-to-end benchmark, as BENCHMARK.json names
# it:  bash bench/e2e/run.sh --workload W --seed N --seconds T --trace 0|1
# From the root of a checkout: builds the harness from source (dune's
# shared cache off, so nothing is written outside the checkout), then
# hands over to it.  Its last stdout line is the JSON result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f bench/e2e/dune ]; then
  echo "run.sh: run from the root of a full checkout (dune-project, lib/ and bench/e2e/ are needed)" >&2
  exit 2
fi

export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/e2e/e2e.exe 1>&2
exec ./_build/default/bench/e2e/e2e.exe run "$@"
