#!/usr/bin/env bash
# Build the SAGE benchmark from source, then run it:
#
#   bash sagebench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; the last line of stdout is the JSON
# result (see sagebench/README.md).
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --cache=disabled --display=quiet ./sagebench/main.exe >&2
exec ./_build/default/sagebench/main.exe "$@"
