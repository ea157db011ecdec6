#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload bh-dpa --seed 42 --seconds 20 --trace 0
#
# The binary and every Go cache live under $CARGO_TARGET_DIR (default
# .bench_build), so nothing is read from or written to the user's Go caches.
# Outside a full checkout (no ../go.mod beside this directory) the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/go-cache GOMODCACHE=$out/go-mod GOPATH=$out/go-path
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off CGO_ENABLED=0

(cd "$here" && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
