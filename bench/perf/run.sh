#!/usr/bin/env bash
# Build bench/perf/perf.exe from source and run it from the repository
# root; every argument is passed on to perf.exe. The dune cache is off
# so that a run reads and writes only inside the tree.
set -e
cd "$(dirname "$0")/../.."
exec dune exec --root . --cache=disabled --display quiet -- ./bench/perf/perf.exe "$@"
