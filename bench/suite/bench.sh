#!/bin/sh
# Entry point for automated runs, from the root of a source checkout:
#
#   sh bench/suite/bench.sh --workload W --seed N --seconds S --trace 0|1
#
# Builds the suite from source (dune's shared cache off, so nothing is
# written outside the checkout), then measures one workload and ends its
# output with a one-line JSON summary.  Exits non-zero if the build fails
# or any correctness check does.
set -eu
export DUNE_CACHE=disabled
dune build --root . ./bench/suite/suite.exe 1>&2
exec ./_build/default/bench/suite/suite.exe run --summary "$@"
