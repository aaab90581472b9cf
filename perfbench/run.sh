#!/usr/bin/env bash
# Builds the alexd serving benchmark from source and runs one workload.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload lookup --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary, data
# directories, span dumps) stays under $CARGO_TARGET_DIR, default
# .bench_build, inside the current directory.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/home" "$out/gocache" "$out/gopath" "$out/tmp"

export HOME=$out/home XDG_CONFIG_HOME=$out/home/.config XDG_CACHE_HOME=$out/home/.cache
export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOENV=off GOTOOLCHAIN=local GOTELEMETRY=off GOPROXY=off GOSUMDB=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"
