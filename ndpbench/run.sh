#!/usr/bin/env bash
# Builds ndpbench from source and runs it. Run from the repository root;
# arguments pass through, e.g.
#   bash ndpbench/run.sh --workload cold-sweep --seed 1 --seconds 25 --trace 0
# Everything the build and the run write stays under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
# Fall back to the Go distribution's default install location when go is
# not on PATH.
command -v go >/dev/null || PATH="/usr/local/go/bin:$PATH"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/ndpbench" && go build -o "$out/ndpbench" .)
exec "$out/ndpbench" -workdir "$out" "$@"
