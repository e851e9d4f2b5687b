#!/usr/bin/env bash
# Build the compiler and the benchmark spine from source, then run the
# spine with the given arguments.  Run from the repository root:
#
#   bash benchspine/run.sh --workload oneshot --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr, so the spine's last stdout line stays
# its JSON result.  The dune cache is off: everything is written under
# the checkout's _build/.
set -euo pipefail
dune build --root . --cache=disabled --display=quiet \
  ./bin/fgc.exe ./benchspine/spine.exe 1>&2
exec ./_build/default/benchspine/spine.exe "$@"
