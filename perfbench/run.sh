#!/usr/bin/env bash
# Builds the wall-clock benchmark from the sources of this checkout and runs
# it from the checkout root:
#
#   bash perfbench/run.sh --workload serve-cold --seed 1 --seconds 15 --trace 0
#
# Build outputs (the binary and the Go build cache) go to $CARGO_TARGET_DIR,
# default .bench_build, inside the checkout; nothing is fetched. The binary
# stamps a digest of the checkout's sources, not a VCS revision, so the
# build needs no git.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

# The Go toolchain's default install location, for shells that do not put it
# on PATH.
command -v go >/dev/null || PATH=$PATH:/usr/local/go/bin
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOTMPDIR=$out
export GOFLAGS="-mod=mod -buildvcs=false" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
