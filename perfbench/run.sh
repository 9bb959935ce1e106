#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash perfbench/run.sh --smoke
#
# Run from the root of a source checkout. Everything the build and the run
# write stays under _perfbench/ in that checkout. The last line of standard
# output is the JSON result; build output goes to standard error.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the root of a full source checkout" >&2
  exit 2
fi

export DUNE_CACHE=disabled
export TMPDIR="$PWD/_perfbench/tmp"
mkdir -p "$TMPDIR"
dune build --root . --build-dir "$PWD/_perfbench/build" --profile release \
  ./perfbench/perfbench.exe 1>&2
exec ./_perfbench/build/default/perfbench/perfbench.exe "$@"
